import os
import pathlib

import pytest

from bmatch.core import parse_certificate, parse_instance

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def src_env() -> dict:
    """Environment for a subprocess that imports bmatch from this checkout."""
    src = str(FIXTURES.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))


@pytest.fixture(scope="session")
def fig2_text() -> str:
    return (FIXTURES / "fig2.bm").read_text()


@pytest.fixture(scope="session")
def fig2(fig2_text):
    return parse_instance(fig2_text, "max-card")


@pytest.fixture(scope="session")
def fig2_m7(fig2):
    cert = parse_certificate((FIXTURES / "fig2_m7.cert").read_text())
    return cert.matching


@pytest.fixture(scope="session")
def scale60():
    return parse_instance((FIXTURES / "scale60.bm").read_text(), "max-card")
