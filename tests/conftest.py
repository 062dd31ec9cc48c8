"""Fixtures shared by the test modules."""

import pytest

from spinnet import cli, tensor


@pytest.fixture(scope="session")
def paper_diagrams():
    """Every diagram ``spinnet verify paper.json`` plans, with its rank cap."""
    seen = []
    real = tensor.plan_contraction

    def record(d, rank_cap=None, mode="exact"):
        seen.append((d.copy(), tensor._MODES[mode].rank_cap if rank_cap is None else rank_cap))
        return real(d, rank_cap=rank_cap, mode=mode)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "plan_contraction", record)
        assert cli.main(["verify", "paper.json"]) == cli.EXIT_OK
    assert seen
    return seen
