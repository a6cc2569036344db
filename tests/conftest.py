import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def f1_dir(tmp_path_factory):
    """Small F1 image+caption fixture table (parquet dir + _labels.parquet)."""
    from data_quality_ray.sources.fixtures import write_f1

    d = tmp_path_factory.mktemp("f1")
    write_f1(str(d), n_rows=600, seed=42, rows_per_file=128)
    return str(d)


@pytest.fixture
def force_path(monkeypatch):
    """``force_path("collect")`` / ``force_path("shuffle")`` sends every
    size gate (``functions/gate.fits``) down one path by patching
    ``gate.LIMITS`` to ``sys.maxsize`` / ``-1``. A test may call it again
    to switch paths. The decisions made under each forced path must
    include at least one gate, and every one must have taken that path;
    this is checked at each switch and at teardown."""
    from data_quality_ray.functions import gate

    forced = []

    def check():
        if not forced:
            return
        seen = list(gate.RECORD)
        assert seen, f"no size gate consulted under force_path({forced[-1]!r})"
        wrong = [d for d in seen if d[3] != forced[-1]]
        assert not wrong, f"gates off the forced {forced[-1]!r} path: {wrong}"

    def force(path: str):
        check()
        limit = {"collect": sys.maxsize, "shuffle": -1}[path]
        monkeypatch.setattr(gate, "LIMITS", dict.fromkeys(gate.LIMITS, limit))
        gate.RECORD.clear()
        forced.append(path)

    yield force
    check()
