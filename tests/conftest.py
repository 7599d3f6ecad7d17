import io
from contextlib import redirect_stdout

import pytest

from shufflecube import Dimension, TopologyKind, materialize
from shufflecube.cli import main as cli_main


@pytest.fixture(scope="session")
def dim6():
    return Dimension(6)


@pytest.fixture(scope="session")
def dim10():
    return Dimension(10)


def _graph_fixture(kind, n):
    @pytest.fixture(scope="session")
    def fixture():
        return materialize(kind, n)

    return fixture


q6 = _graph_fixture(TopologyKind.Q, 6)
sq6 = _graph_fixture(TopologyKind.SQ, 6)
ssq6 = _graph_fixture(TopologyKind.SSQ, 6)
bsq6 = _graph_fixture(TopologyKind.BSQ, 6)
sq10 = _graph_fixture(TopologyKind.SQ, 10)
ssq10 = _graph_fixture(TopologyKind.SSQ, 10)
bsq10 = _graph_fixture(TopologyKind.BSQ, 10)


@pytest.fixture(scope="session")
def claims6_run():
    """Exit code and stdout of one `verify-claims 6 --no-timing` run, shared by the tests that only read it."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["verify-claims", "6", "--no-timing"])
    return code, buf.getvalue()
