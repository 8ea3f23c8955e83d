import os

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "pkg",
    deadline=None,
    max_examples=30,
    derandomize=True,
)
hypothesis.settings.load_profile("pkg")


@pytest.fixture
def glibc():
    """Skips a test of glibc's allocator settings on any other libc."""
    try:
        version = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError):
        version = None
    if not version:
        pytest.skip("mallopt's thresholds are glibc's; this libc is not glibc")
