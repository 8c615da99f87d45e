"""Self-test of the benchmark's own machinery; exits non-zero on a failure.

    python3 perfbench/selftest.py

Checks that the input generators are deterministic in the seed, that every
workload's checks pass on the library's real outputs, that a tampered output
is counted as failed, and that ``BENCHMARK.json`` names exactly the
workloads and metrics ``run.py`` reports.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import featurespace.explain as fs_explain  # noqa: E402
import featurespace.lineage as fs_lineage  # noqa: E402
import featurespace.table as fs_table  # noqa: E402
from featurespace import demo  # noqa: E402
from featurespace.errors import MappingError  # noqa: E402

import workloads  # noqa: E402
from inputs import contribution_text, covertype_rows  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracing import NullTracer, TraceError, Tracer  # noqa: E402

SAMPLE = demo.read_text("covertype_sample.csv")
FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def small(cls, **sizes):
    """The workload class with its inputs scaled down for a quick check."""
    return type(cls.__name__, (cls,), sizes)


def test_generators() -> None:
    a = covertype_rows(7, 400, 0.05, SAMPLE)
    b = covertype_rows(7, 400, 0.05, SAMPLE)
    c = covertype_rows(8, 400, 0.05, SAMPLE)
    expect(a.text().encode() == b.text().encode(), "same seed gives the same row bytes")
    expect(a.text() != c.text(), "different seeds give different rows")
    expect(a.golden_positions != c.golden_positions,
           "different seeds embed the sample rows at different positions")
    sample_lines = SAMPLE.splitlines(keepends=True)[1:]
    expect(all(a.lines[pos] == sample_lines[i] for i, pos in enumerate(a.golden_positions)),
           "the unperturbed sample rows sit at their recorded positions")
    expect(sum(line.startswith(",") for line in a.lines) == a.missing_elevation > 0,
           "missing Elevation cells are counted and follow the missing rate")
    expect(covertype_rows(7, 400, 0.0, SAMPLE).missing_elevation == 0,
           "a zero missing rate gives no missing cells")
    table = fs_table.read_table_csv(io.StringIO(a.text()), demo.original_manifest())
    elevations = [v for v in table.column("Elevation") if v is not fs_table.MISSING]
    expect(min(elevations) >= 1859 and max(elevations) <= 3858,
           "perturbed Elevation stays inside the pinned bin range")
    names = ("x", "y", "z")
    expect(contribution_text(3, names, 50) == contribution_text(3, names, 50),
           "same seed gives the same contribution bytes")
    expect(contribution_text(3, names, 50) != contribution_text(4, names, 50),
           "different seeds give different contribution vectors")


def round_of(cls, workdir: Path, seed: int = 5):
    return cls(seed, workdir).round(NullTracer())


class Patched:
    """Temporarily replace ``owner.attr`` with ``make(original)``."""

    def __init__(self, owner, attr, make):
        self.owner, self.attr, self.make = owner, attr, make

    def __enter__(self):
        self.original = getattr(self.owner, self.attr)
        setattr(self.owner, self.attr, self.make(self.original))

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.original)
        return False


def test_checks_pass_and_catch_tampering(workdir: Path) -> None:
    bulk = small(workloads.ModelReadyBulk, rows=300)
    lineage = small(workloads.InterpretableLineage, rows=300)
    explain = small(workloads.ExplainMap, fit_rows=300, vectors=200)
    batches = small(workloads.ModelReadySmallBatches, batches=40)
    for cls in (bulk, lineage, explain, batches):
        rnd = round_of(cls, workdir)
        expect(rnd.attempted > 0 and rnd.failed == 0,
               f"{cls.name}: untampered outputs pass every check ({rnd.failures[:2]})")

    def drop_last_row(write):
        def tampered(table, target, formats=None):
            out = io.StringIO()
            write(table, out, formats)
            target.write(out.getvalue().rsplit("\n", 2)[0] + "\n")
        return tampered

    def corrupt_golden(write):
        def tampered(table, target, formats=None):
            out = io.StringIO()
            write(table, out, formats)
            target.write(out.getvalue().replace("Medium (2525m-3192m)", "Low (1859m-2525m)")
                         .replace("Subalpine", "Montane"))
        return tampered

    def drop_lineage_entry(to_data):
        return lambda records: to_data(records)[1:]

    def shift_contribution(map_fn):
        def tampered(fitted, vector, expose_flags=False):
            result = map_fn(fitted, vector, expose_flags)
            values = (result.vector.values[0] + 1e-3,) + result.vector.values[1:]
            moved = fs_explain.ContributionVector(result.vector.schema, values,
                                                  result.vector.base_value)
            return fs_explain.MappedContributions(moved, result.fidelity_notes,
                                                  result.exposed_flags,
                                                  result.partition_audit)
        return tampered

    def raise_mapping_error(map_fn):
        calls = []

        def tampered(fitted, vector, expose_flags=False):
            calls.append(1)
            if len(calls) == 3:
                raise MappingError("injected")
            return map_fn(fitted, vector, expose_flags)
        return tampered

    for cls, owner, attr, make, what in (
        (bulk, fs_table, "write_table_csv", drop_last_row, "a dropped output row"),
        (bulk, fs_table, "write_table_csv", corrupt_golden, "a wrong golden cell"),
        (lineage, fs_table, "write_table_csv", corrupt_golden, "a wrong golden cell"),
        (lineage, fs_lineage, "lineage_to_data", drop_lineage_entry,
         "a missing lineage entry"),
        (batches, fs_table, "write_table_csv", corrupt_golden, "a wrong golden cell"),
        (batches, fs_table, "write_table_csv", drop_last_row, "a dropped output row"),
        (explain, fs_explain, "map_contributions", shift_contribution,
         "a mapped vector that does not conserve its total"),
        (explain, fs_explain, "map_contributions", raise_mapping_error,
         "a MappingError"),
    ):
        with Patched(owner, attr, make):
            rnd = round_of(cls, workdir)
        expect(rnd.failed > 0, f"{cls.name}: {what} is counted as failed "
                               f"({rnd.failed}/{rnd.attempted})")


def test_tracer_fails_loudly() -> None:
    tracer = Tracer()
    try:
        tracer.patch(fs_table, "no_such_function", lambda fn: fn)
    except TraceError:
        raised = True
    else:
        raised = False
    expect(raised, "tracing a name that no longer exists raises")
    try:
        tracer.require(["table.read_s"])
    except TraceError:
        raised = True
    else:
        raised = False
    expect(raised, "an expected span that never ran raises")


def test_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
           "BENCHMARK.json names every workload and no other")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END),
           "BENCHMARK.json end-to-end metrics match the catalogue")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER),
           "BENCHMARK.json per-layer metrics match the catalogue")


def main() -> int:
    workdir = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        test_generators()
        test_checks_pass_and_catch_tampering(workdir)
        test_tracer_fails_loudly()
        test_benchmark_json()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
