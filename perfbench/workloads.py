"""The benchmark's workloads. Each drives the library in-process, making the
calls ``featurespace fit``, ``transform`` and ``explain-map`` make, on inputs
generated from the run's seed.

A workload runs in rounds. A round is a fixed amount of work: fit the
pipeline(s) it serves and save the fitted document (``fit``), load that
document as each invocation would (set-up, sampled ``SETUP_SAMPLES`` times),
then the workload's main operation on all of its inputs. The round's outputs
are checked after its timed phases.

The host's current speed is probed before and after every phase (see
``probe``), so each phase's time can be scaled to a nominal host speed.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import featurespace.explain as fs_explain
import featurespace.lineage as fs_lineage
import featurespace.pipeline as fs_pipeline
import featurespace.table as fs_table
from featurespace import demo
from featurespace.errors import FeatureSpaceError, MappingError
from featurespace.transforms import KERNELS

import checks
from inputs import contribution_text, covertype_rows
from metrics import DEMO_KINDS, INTERPRETABLE_KINDS, MODEL_READY_KINDS
from tracing import TraceError, Tracer

SETUP_SAMPLES = 8
PROBE_LOOPS = 100_000
# ``probe()`` on an unloaded 2-vCPU x86-64 VM, CPython 3.11 (fastest of 300).
PROBE_NOMINAL_S = 0.006
DEMO_DIR = Path(demo.__file__).resolve().parent
MODEL_READY_YAML = DEMO_DIR / "pipeline_model_ready.yaml"
INTERPRETABLE_YAML = DEMO_DIR / "pipeline_interpretable.yaml"
GOLDEN_FILE = {MODEL_READY_YAML: "golden_model_ready.csv",
               INTERPRETABLE_YAML: "golden_interpretable.csv"}
FIT_SPANS = ("table.read_s", "table.validate_s", "pipeline.fit_self_s",
             "pipeline.save_s", "pipeline.load_s")
TRANSFORM_SPANS = ("table.read_s", "table.validate_s", "table.write_s",
                   "pipeline.run_self_s", "pipeline.display_formats_s")


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now, best of three.

    Other tenants of a shared host slow this process by up to 2x, for seconds
    to minutes at a time. The loop is slowed alike, so its time measures the
    host's speed while a phase runs; it allocates nothing the library's
    garbage collector or caches could share.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Round:
    """What one round did and how long each timed phase took."""

    fit_rows: int = 0
    fit_s: float = 0.0
    items: int = 0
    main_s: float = 0.0
    setup_samples: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    lineage_records: int = 0
    rows_run: int = 0
    max_delta: float = 0.0
    probes: list[float] = field(default_factory=list)

    def mark(self) -> None:
        """Probe the host's speed at a phase boundary."""
        self.probes.append(probe())

    def scale(self, phase: int) -> float:
        """Factor taking phase ``phase`` (0 fit, 1 set-up, 2 main) to the
        nominal host speed: the nominal probe time over the mean of the
        probes around the phase."""
        return PROBE_NOMINAL_S / ((self.probes[phase] + self.probes[phase + 1]) / 2)

    @property
    def timed_s(self) -> float:
        return self.fit_s + sum(self.setup_samples) + self.main_s

    def fail(self, messages: list[str]) -> None:
        if messages:
            self.failed += 1
            self.failures.extend(messages)


def lineage_json(entries: list) -> str:
    """The lineage file text, as ``transform --lineage`` writes it."""
    return json.dumps(entries, indent=2) + "\n"


def install_tracing(tracer: Tracer) -> None:
    """Wrap each layer's public callables; raises if one no longer exists."""
    for module, attr, name in (
        (fs_table, "read_table_csv", "table.read_s"),
        (fs_table, "write_table_csv", "table.write_s"),
        (fs_table.DataTable, "__post_init__", "table.validate_s"),
        (fs_pipeline, "run", "pipeline.run_self_s"),
        (fs_pipeline, "load_pipeline", "pipeline.load_s"),
        (fs_pipeline, "load_fitted", "pipeline.load_s"),
        (fs_pipeline, "save_fitted", "pipeline.save_s"),
        (fs_pipeline.FittedPipeline, "display_formats", "pipeline.display_formats_s"),
        (fs_lineage, "lineage_to_data", "lineage.to_data_s"),
        (fs_explain, "read_contributions", "explain.read_s"),
        (fs_explain, "map_contributions", "explain.map_s"),
        (fs_explain, "conservation_check", "explain.check_s"),
        (fs_explain, "write_contributions", "explain.write_s"),
    ):
        tracer.patch(module, attr, lambda fn, name=name: tracer.wrap(name, fn))
    tracer.patch(fs_pipeline, "fit", lambda fn: tracer.wrap_fit("pipeline.fit_self_s", fn))
    for kind in DEMO_KINDS:
        if kind not in KERNELS:
            raise TraceError(f"cannot trace transform kind {kind!r}: it no longer exists")
        kernel = KERNELS[kind]
        tracer.patch(kernel, "apply", lambda fn, kind=kind: tracer.wrap_apply(kind, fn))
        tracer.patch(kernel, "fit",
                     lambda fn, kind=kind: tracer.wrap(f"transforms.{kind}.fit_s", fn))
    tracer.install_gc()


class Workload:
    name = ""
    expected_spans: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.sample_text = demo.read_text("covertype_sample.csv")

    def round(self, tracer) -> Round:
        raise NotImplementedError

    # -- shared steps --------------------------------------------------------

    def fit_and_save(self, rnd: Round, yaml_path: Path, text: str, rows: int,
                     doc: Path) -> bool:
        """Parse, fit and save, as ``featurespace fit`` does; False on error."""
        pipeline = self.pipelines[yaml_path]
        rnd.attempted += 1
        start = time.perf_counter()
        try:
            table = fs_table.read_table_csv(io.StringIO(text), pipeline.input_schema)
            fitted = fs_pipeline.fit(pipeline, table)
            fs_pipeline.save_fitted(fitted, doc)
        except FeatureSpaceError as exc:
            rnd.fail([f"fit {yaml_path.name}: {exc}"])
            return False
        rnd.fit_s += time.perf_counter() - start
        rnd.fit_rows += rows
        return True

    def load_setup(self, rnd: Round, docs: list[tuple[Path, Path]]) -> list:
        """Load each (pipeline yaml, fitted doc) pair ``SETUP_SAMPLES`` times,
        timing each complete set-up; returns the last loaded fitted pipelines."""
        fitted = []
        for _ in range(SETUP_SAMPLES):
            start = time.perf_counter()
            fitted = []
            for yaml_path, doc in docs:
                fs_pipeline.load_pipeline(yaml_path)
                fitted.append(fs_pipeline.load_fitted(doc))
            rnd.setup_samples.append(time.perf_counter() - start)
        return fitted

    def transform(self, rnd: Round, tracer, fitted, text: str, lineage: bool):
        """Parse, run and write, plus the lineage JSON if asked, as
        ``featurespace transform`` does. Returns (output CSV, lineage entries,
        rows in the result table, seconds), or None if the library raised."""
        rnd.attempted += 1
        start = time.perf_counter()
        try:
            table = fs_table.read_table_csv(io.StringIO(text), fitted.input_schema)
            result = fs_pipeline.run(fitted, table)
            out = io.StringIO()
            fs_table.write_table_csv(result.table, out, fitted.display_formats())
            entries = None
            if lineage:
                entries = fs_lineage.lineage_to_data(result.lineage)
                with tracer.span("lineage.json_s"):
                    lineage_json(entries)
        except FeatureSpaceError as exc:
            rnd.fail([f"transform: {exc}"])
            return None
        elapsed = time.perf_counter() - start
        rnd.lineage_records += len(result.lineage)
        rnd.rows_run += result.table.num_rows
        return out.getvalue(), entries, result.table.num_rows, elapsed

    def golden(self, yaml_path: Path):
        return demo.golden_grid(GOLDEN_FILE[yaml_path])


class BulkTransform(Workload):
    """Fit a demo pipeline on all rows, then transform them in one table."""

    yaml_path = MODEL_READY_YAML
    rows = 10_000
    missing_rate = 0.0
    lineage = False

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.pipelines = {self.yaml_path: fs_pipeline.load_pipeline(self.yaml_path)}
        self.data = covertype_rows(seed, self.rows, self.missing_rate, self.sample_text)
        self.text = self.data.text()
        self.doc = workdir / f"{self.name}.fitted.json"
        self.golden_header, self.golden_rows = self.golden(self.yaml_path)

    def round(self, tracer) -> Round:
        rnd = Round()
        rnd.mark()
        if not self.fit_and_save(rnd, self.yaml_path, self.text, self.rows, self.doc):
            return rnd
        rnd.mark()
        (fitted,) = self.load_setup(rnd, [(self.yaml_path, self.doc)])
        rnd.mark()
        done = self.transform(rnd, tracer, fitted, self.text, self.lineage)
        rnd.mark()
        if done is None:
            return rnd
        output, entries, rows_out, elapsed = done
        rnd.items += self.rows
        rnd.main_s += elapsed
        rnd.latencies.append(elapsed)
        failures = checks.row_count_failures(self.rows, rows_out, output, self.name)
        failures += checks.golden_failures(output, self.golden_header, self.golden_rows,
                                           self.data.golden_positions, self.name)
        if entries is not None:
            failures += checks.lineage_count_failures(
                entries, self.rows, checks.new_features_per_row(fitted),
                self.data.missing_elevation, self.name)
        rnd.fail(failures)
        return rnd


class ModelReadyBulk(BulkTransform):
    name = "model_ready_bulk"
    expected_spans = FIT_SPANS + TRANSFORM_SPANS + (
        "pipeline.fit_apply_s", "transforms.pca_project.fit_s",
        *(f"transforms.{kind}.apply_s" for kind in MODEL_READY_KINDS))


class InterpretableLineage(BulkTransform):
    name = "interpretable_lineage"
    yaml_path = INTERPRETABLE_YAML
    rows = 15_000
    missing_rate = 0.01
    lineage = True
    expected_spans = FIT_SPANS + TRANSFORM_SPANS + (
        "pipeline.fit_apply_s", "lineage.to_data_s", "lineage.json_s",
        *(f"transforms.{kind}.apply_s" for kind in INTERPRETABLE_KINDS))


class ExplainMap(Workload):
    """Map seeded contribution vectors through both fitted demo pipelines,
    as ``featurespace explain-map`` does: read, map, check, write."""

    name = "explain_map"
    fit_rows = 5_000
    vectors = 20_000
    expected_spans = FIT_SPANS + ("explain.read_s", "explain.map_s",
                                  "explain.check_s", "explain.write_s")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.order = (MODEL_READY_YAML, INTERPRETABLE_YAML)
        self.pipelines = {path: fs_pipeline.load_pipeline(path) for path in self.order}
        self.fit_text = covertype_rows(seed, self.fit_rows, 0.0, self.sample_text).text()
        self.docs = [(path, workdir / f"{self.name}.{i}.fitted.json")
                     for i, path in enumerate(self.order)]
        self.contribs = {}
        for i, path in enumerate(self.order):
            pipeline = self.pipelines[path]
            side = (pipeline.input_schema if pipeline.direction == "to_interpretable"
                    else pipeline.output_schema)
            self.contribs[path] = contribution_text(seed * 2 + i, side.names, self.vectors)

    def round(self, tracer) -> Round:
        rnd = Round()
        rnd.mark()
        for path, doc in self.docs:
            if not self.fit_and_save(rnd, path, self.fit_text, self.fit_rows, doc):
                return rnd
        rnd.mark()
        loaded = self.load_setup(rnd, self.docs)
        rnd.mark()
        for (path, _), fitted in zip(self.docs, loaded):
            self.map_file(rnd, fitted, path.name, self.contribs[path])
        rnd.mark()
        return rnd

    def map_file(self, rnd: Round, fitted, label: str, text: str) -> None:
        side = (fitted.input_schema if fitted.direction == "to_interpretable"
                else fitted.output_schema)
        rnd.attempted += 1  # reading and writing the file; each vector counts too
        start = time.perf_counter()
        try:
            vectors = fs_explain.read_contributions(io.StringIO(text), side)
        except FeatureSpaceError as exc:
            rnd.fail([f"{label}: read contributions: {exc}"])
            return
        mapped, results, notes = [], [], []  # notes: explain-map's fidelity sidecar
        latencies = rnd.latencies
        for vector in vectors:
            t0 = time.perf_counter()
            try:
                result = fs_explain.map_contributions(fitted, vector)
            except MappingError as exc:
                latencies.append(time.perf_counter() - t0)
                results.append(exc)
                continue
            check = fs_explain.conservation_check(
                vector, result.vector, extra_after=sum(result.exposed_flags.values()))
            latencies.append(time.perf_counter() - t0)
            results.append((result, check))
            mapped.append(result.vector)
            for note in result.fidelity_notes:
                if note not in notes:
                    notes.append(note)
        out = io.StringIO()
        try:
            fs_explain.write_contributions(mapped, out)
        except FeatureSpaceError as exc:
            rnd.fail([f"{label}: write contributions: {exc}"])
            return
        rnd.main_s += time.perf_counter() - start
        rnd.items += len(vectors)
        for r, (vector, outcome) in enumerate(zip(vectors, results)):
            rnd.attempted += 1
            if isinstance(outcome, MappingError):
                rnd.fail([f"{label}: vector {r}: {outcome}"])
                continue
            result, check = outcome
            rnd.max_delta = max(rnd.max_delta, check.delta)
            failures = checks.conservation_failures(vector.values, result.vector.values,
                                                    result.exposed_flags, check, label, r)
            rnd.fail(failures)
        rnd.fail(checks.mapped_file_failures(len(vectors), out.getvalue(), label))


class ModelReadySmallBatches(Workload):
    """Many 8-row transforms through one fitted model-ready pipeline."""

    name = "model_ready_small_batches"
    batches = 1_000
    batch_rows = 8
    expected_spans = FIT_SPANS + TRANSFORM_SPANS + (
        *(f"transforms.{kind}.apply_s" for kind in MODEL_READY_KINDS),)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.pipelines = {MODEL_READY_YAML: fs_pipeline.load_pipeline(MODEL_READY_YAML)}
        rows = self.batches * self.batch_rows
        self.data = covertype_rows(seed, rows, 0.0, self.sample_text)
        self.text = self.data.text()
        self.batch_texts = [self.data.text(b * self.batch_rows, (b + 1) * self.batch_rows)
                            for b in range(self.batches)]
        self.golden_in = {}
        for i, pos in enumerate(self.data.golden_positions):
            self.golden_in.setdefault(pos // self.batch_rows, []).append(
                (i, pos % self.batch_rows))
        self.doc = workdir / f"{self.name}.fitted.json"
        self.golden_header, self.golden_rows = self.golden(MODEL_READY_YAML)

    def round(self, tracer) -> Round:
        rnd = Round()
        rows = self.batches * self.batch_rows
        rnd.mark()
        if not self.fit_and_save(rnd, MODEL_READY_YAML, self.text, rows, self.doc):
            return rnd
        rnd.mark()
        (fitted,) = self.load_setup(rnd, [(MODEL_READY_YAML, self.doc)])
        rnd.mark()
        outputs = []
        for text in self.batch_texts:
            done = self.transform(rnd, tracer, fitted, text, lineage=False)
            outputs.append(done)
            if done is not None:
                rnd.items += self.batch_rows
                rnd.main_s += done[3]
                rnd.latencies.append(done[3])
        rnd.mark()
        for b, done in enumerate(outputs):
            if done is None:
                continue
            output, _, rows_out, _ = done
            label = f"{self.name} batch {b}"
            failures = checks.row_count_failures(self.batch_rows, rows_out, output, label)
            golden = self.golden_in.get(b)
            if golden:
                failures += checks.golden_failures(
                    output, self.golden_header, [self.golden_rows[i] for i, _ in golden],
                    tuple(offset for _, offset in golden), label)
            rnd.fail(failures)
        return rnd


WORKLOADS = {w.name: w for w in (ModelReadyBulk, InterpretableLineage, ExplainMap,
                                 ModelReadySmallBatches)}

