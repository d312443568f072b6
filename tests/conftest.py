import pytest

from crysfuse.tensor import set_default_dtype


@pytest.fixture(params=["f64", "f32"])
def precision(request):
    """Run the test at each precision; restores float64 after."""
    set_default_dtype(request.param)
    yield request.param
    set_default_dtype("f64")
