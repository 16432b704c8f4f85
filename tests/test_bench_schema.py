"""The shared benchmark JSON schema: one writer, one envelope, every bench.

Two enforcement layers:

* the writer (``bench_common.write_bench_json``) always produces the full
  :data:`bench_common.BENCH_SCHEMA` envelope, with structured sweeps in
  the facade's ``SweepResultSet`` schema round-tripping losslessly;
* a source scan proves no ``bench_*`` module writes JSON on the side —
  the only way benchmark output reaches disk is the shared writer.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.analysis import SweepResult
from repro.api import SWEEP_SCHEMA, SweepResultSet

BENCHMARKS_DIR = Path(__file__).parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def bench_common():
    spec = importlib.util.spec_from_file_location(
        "bench_common", BENCHMARKS_DIR / "bench_common.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_common", module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def sample_sweep() -> SweepResultSet:
    return SweepResultSet(
        results=(
            SweepResult(
                method="SOLH",
                eps_values=[0.2, 0.8],
                means=[1.5e-6, float("nan")],
                stds=[2.0e-7, float("nan")],
            ),
        ),
        eps_values=(0.2, 0.8),
        delta=1e-9,
        repeats=5,
        workers=2,
        metric="mse",
        d=16,
        n=20_000,
    )


REQUIRED_KEYS = {
    "schema", "name", "params", "elapsed_seconds", "table", "sweep", "extra",
}
REQUIRED_PARAMS = {"scale", "repeats", "seed", "workers"}


class TestEnvelope:
    def test_all_keys_always_present(self, bench_common, tmp_path):
        target = bench_common.write_bench_json(
            "unit_test_bench",
            bench_common.BenchResult(table="a table"),
            path=tmp_path / "record.json",
        )
        payload = json.loads(target.read_text())
        assert set(payload) == REQUIRED_KEYS
        assert payload["schema"] == bench_common.BENCH_SCHEMA
        assert set(payload["params"]) == REQUIRED_PARAMS
        assert payload["sweep"] is None
        assert payload["extra"] == {}
        assert payload["table"] == "a table"

    def test_sweep_embeds_and_round_trips(
        self, bench_common, sample_sweep, tmp_path
    ):
        target = bench_common.write_bench_json(
            "unit_test_bench",
            bench_common.BenchResult(
                table="t", sweep=sample_sweep, extra={"k": 1}
            ),
            elapsed=1.25,
            path=tmp_path / "record.json",
        )
        text = target.read_text()
        assert "NaN" not in text  # strict RFC-8259 JSON for non-Python tools
        payload = json.loads(text)
        assert payload["sweep"]["schema"] == SWEEP_SCHEMA
        assert payload["elapsed_seconds"] == 1.25
        assert payload["extra"] == {"k": 1}
        back = SweepResultSet.from_dict(payload["sweep"])
        assert back.methods == ("SOLH",)
        assert back.table() == sample_sweep.table()  # NaN cells survive

    def test_emit_writes_both_artifacts(
        self, bench_common, sample_sweep, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(bench_common, "RESULTS_DIR", tmp_path)
        bench_common.emit(
            "unit_test_bench",
            bench_common.BenchResult(table="the table", sweep=sample_sweep),
        )
        assert "the table" in capsys.readouterr().out
        assert (tmp_path / "unit_test_bench.txt").exists()
        payload = json.loads((tmp_path / "unit_test_bench.json").read_text())
        assert payload["schema"] == bench_common.BENCH_SCHEMA

    def test_emit_accepts_plain_string(
        self, bench_common, tmp_path, monkeypatch
    ):
        # Backwards compatibility: most benches still pass a table string.
        monkeypatch.setattr(bench_common, "RESULTS_DIR", tmp_path)
        bench_common.emit("unit_test_bench", "bare text")
        payload = json.loads((tmp_path / "unit_test_bench.json").read_text())
        assert payload["table"] == "bare text"
        assert payload["sweep"] is None


class TestSingleWriter:
    def test_no_bench_writes_json_on_the_side(self):
        offenders = []
        for path in sorted(BENCHMARKS_DIR.glob("bench_*.py")):
            if path.name == "bench_common.py":
                continue
            source = path.read_text()
            if "json.dump" in source or "emit_json" in source:
                offenders.append(path.name)
        assert not offenders, (
            f"benchmarks must emit JSON only through bench_common's shared "
            f"writer; offenders: {offenders}"
        )

    def test_every_bench_routes_through_emit(self):
        missing = []
        for path in sorted(BENCHMARKS_DIR.glob("bench_*.py")):
            if path.name == "bench_common.py":
                continue
            if "emit(" not in path.read_text():
                missing.append(path.name)
        assert not missing, f"benches not using the shared writer: {missing}"
