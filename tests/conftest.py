import pytest

from crysfuse.tensor import set_default_dtype


@pytest.fixture(autouse=True)
def _restore_dtype():
    """Put the default precision back to float64 after every test, failed
    ones included: building a model sets it to the model's precision."""
    yield
    set_default_dtype("f64")


@pytest.fixture(params=["f64", "f32"])
def precision(request):
    """Run the test at each precision."""
    set_default_dtype(request.param)
    return request.param
