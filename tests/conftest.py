import pytest
from hypothesis import settings

from acfront import BistableNonlinearity, solve_r, solve_wave

# lattice solves run far longer than hypothesis' default 200 ms deadline
settings.register_profile("acfront", deadline=None)
settings.load_profile("acfront")


@pytest.fixture(scope="session")
def wave03():
    """Solved a=0.3 wave with adjoint, d and corrector, shared per session."""
    w = solve_wave(BistableNonlinearity(a=0.3))
    solve_r(w)
    return w
