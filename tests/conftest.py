import pytest

from tests.support import release_all


@pytest.fixture(autouse=True)
def _release_reserved_ports():
    """Free the ports a test reserved with ``tests.support.free_port``."""
    yield
    release_all()
