"""Command-line entry point.

Exit codes are a stable contract: 0 success, 1 input/validation error,
2 kernel runtime error, 3 inversion refusal, 4 conservation violation.

So are outputs (``schema.open_outputs``): each file is written whole or not
at all, ``transform`` and ``explain-map`` commit all of their files or none,
and a command prints where it wrote only once its files are in place. A
failed write creates no file and leaves existing outputs intact.

Each error is reported once, where it is found, and named by its file: a
missing or unreadable input by ``schema.open_input`` as the command reads
it, an error of an input's content by the same opener, which puts the
file's path before it, and a pipeline that ``explain-map`` cannot map before
its contributions are read.
``demo-covertype`` writes its golden outputs before it reads ``--data``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import demo
from .errors import KernelError, ValidationError
from .explain import map_batch, mapping_plan, read_contributions, write_contributions
from .lineage import write_lineage_json
from .pipeline import (
    FittedPipeline,
    InversionRefusal,
    fit,
    invert,
    load_document,
    load_fitted,
    load_pipeline,
    run,
    save_fitted,
)
from .planner import audit, load_persona
from .schema import SchemaManifest, load_manifest, open_input, open_outputs
from .table import MISSING, DataTable, parse_cell, read_table_csv, write_table_csv
from .transforms import kernel_for

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_KERNEL = 2
EXIT_REFUSAL = 3
EXIT_CONSERVATION = 4


def cmd_fit(args) -> int:
    pipeline = load_pipeline(args.pipeline)
    table = read_table_csv(args.data, pipeline.input_schema)
    fitted = fit(pipeline, table)
    save_fitted(fitted, args.out)
    print(f"fitted pipeline written to {args.out}")
    return EXIT_OK


def cmd_transform(args) -> int:
    pipeline = load_document(args.pipeline) if args.fit else load_fitted(args.pipeline)
    table = read_table_csv(args.data, pipeline.input_schema)
    fitted = pipeline if isinstance(pipeline, FittedPipeline) else fit(pipeline, table)
    result = run(fitted, table)
    with open_outputs(args.out, args.lineage or None, args.report or None) as (
            out, lineage, report):
        write_table_csv(result.table, out, fitted.display_formats())
        if lineage:
            write_lineage_json(result.lineage, lineage)
        if report:
            lines = list(result.fidelity_notes) or ["no fidelity loss: every step is exact"]
            report.write("\n".join(lines) + "\n")
    print(f"transformed {result.table.num_rows} rows -> {args.out}")
    if args.lineage:
        print(f"lineage written to {args.lineage}")
    if args.report:
        print(f"fidelity report written to {args.report}")
    return EXIT_OK


def cmd_invert(args) -> int:
    result = invert(load_fitted(args.pipeline))
    if isinstance(result, InversionRefusal):
        print(result.message, file=sys.stderr)
        return EXIT_REFUSAL
    save_fitted(result, args.out)
    print(f"inverse pipeline written to {args.out}")
    return EXIT_OK


def cmd_explain_map(args) -> int:
    fitted = load_fitted(args.pipeline)
    plan = mapping_plan(fitted, args.expose_flags)
    vectors = read_contributions(args.contribs, plan.expected)
    if not vectors:
        raise ValidationError(f"{args.contribs}: no contribution rows")
    batch = map_batch(fitted, vectors, args.expose_flags)
    r = batch.failed_row
    if r is not None:
        check = batch.checks[r]
        if check.checkable:
            print(f"conservation violated on row {r}: delta {check.delta:g} "
                  f"exceeds {check.tolerance:g}", file=sys.stderr)
        else:
            print(f"conservation cannot be checked on row {r}: "
                  "a contribution total is not finite", file=sys.stderr)
        return EXIT_CONSERVATION
    notes = list(dict.fromkeys(plan.fidelity_notes))
    for r, flags in enumerate(batch.exposed_flags):
        for flag, value in flags.items():
            notes.append(f"row {r}: exposed flag contribution {flag} = {value!r}")
    sidecar = Path(str(args.out) + ".fidelity.txt")
    with open_outputs(args.out, sidecar) as (out, sidecar_out):
        write_contributions(batch.vectors, out)
        lines = notes or ["no fidelity loss: all contribution rules were exact"]
        sidecar_out.write("\n".join(lines) + "\n")
    print(f"mapped {len(batch.vectors)} contribution rows -> {args.out}")
    print(f"fidelity notes -> {sidecar}")
    return EXIT_OK


def cmd_audit(args) -> int:
    manifest = load_manifest(args.manifest)
    persona = load_persona(args.persona)
    report = audit(manifest, persona)
    with open_outputs(args.out) as (out,):
        out.write(json.dumps(report.to_data(), indent=2) + "\n")
    sys.stdout.write(report.format_text())
    print(f"audit report written to {args.out}")
    return EXIT_OK


def _demo_elevation_stats(path: str) -> int:
    spec = demo.original_manifest().feature("Elevation")
    with open_input(path, "data file") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or "Elevation" not in header:
            raise ValidationError("expected a CSV with an Elevation column")
        idx = header.index("Elevation")
        column = []
        for r, row in enumerate(reader):
            if not row:  # a blank line
                continue
            try:
                if idx >= len(row):
                    raise ValidationError(f"expected {idx + 1} fields or more, got {len(row)}")
                column.append(parse_cell(row[idx], spec))
            except ValidationError as exc:
                raise ValidationError(f"row {r}: {exc}") from None
    table = DataTable.from_columns(SchemaManifest((spec,)), [column], len(column), validate=())
    try:
        stats = kernel_for("standardize").fit(table, {"feature": "Elevation"})
    except KernelError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    except OverflowError:
        raise ValidationError(f"{path}: fitting overflows the float range") from None
    observed = [v for v in column if v is not MISSING]
    low, high = min(observed), max(observed)
    failures = 0
    for label, got, want in (("mean", stats["mean"], demo.ELEVATION_MEAN),
                             ("scale", stats["scale"], demo.ELEVATION_SCALE),
                             ("min", low, demo.ELEVATION_MIN),
                             ("max", high, demo.ELEVATION_MAX)):
        ok = abs(got - want) <= 0.01
        print(f"elevation {label}: {got:.2f} vs documented {want:.2f}: "
              f"{'PASS' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    return failures


def cmd_demo_covertype(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = demo.sample_table()
    failures = 0
    jobs = (
        ("model-ready", demo.model_ready_pipeline(), "golden_model_ready.csv",
         out_dir / "covertype_model_ready.csv"),
        ("interpretable", demo.interpretable_pipeline(), "golden_interpretable.csv",
         out_dir / "covertype_interpretable.csv"),
    )
    for label, pipeline, golden_name, out_path in jobs:
        fitted = fit(pipeline, table)
        result = run(fitted, table)
        write_table_csv(result.table, out_path, fitted.display_formats())
        golden_header, golden_rows = demo.golden_grid(golden_name)
        with open_input(out_path, "demo output") as handle:
            produced = list(csv.reader(handle))
        produced_header, produced_rows = produced[0], produced[1:]
        column_of = {name: i for i, name in enumerate(produced_header)}
        missing = [name for name in golden_header if name not in column_of]
        if missing:
            raise ValidationError(f"{label}: output lost golden columns {missing}")
        for r, golden_row in enumerate(golden_rows):
            row_ok = all(
                produced_rows[r][column_of[name]] == golden_row[c]
                for c, name in enumerate(golden_header)
            )
            print(f"{label} row {r + 1}: {'PASS' if row_ok else 'FAIL'}")
            failures += 0 if row_ok else 1
        print(f"{label} output -> {out_path}")
    if args.data is not None:
        failures += _demo_elevation_stats(args.data)
    return EXIT_OK if failures == 0 else EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="featurespace",
        description="Convert tabular data and additive explanations between "
                    "model-ready and interpretable feature spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a pipeline's data-dependent parameters; rows "
                                   "flow only through the steps up to the last one "
                                   "that learns")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("transform", help="run a pipeline over a CSV table")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lineage", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--fit", action="store_true",
                   help="fit data-dependent steps from --data before running")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("invert", help="write the inverse of an exact pipeline")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("explain-map",
                       help="map model-ready contribution vectors to the "
                            "interpretable schema")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--contribs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--expose-flags", action="store_true",
                   help="report imputation-flag contributions separately "
                        "instead of absorbing them")
    p.set_defaults(func=cmd_explain_map)

    p = sub.add_parser("audit", help="audit a manifest against a persona profile")
    p.add_argument("--manifest", required=True)
    p.add_argument("--persona", required=True,
                   help="builtin persona kind or a persona config path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("demo-covertype",
                       help="run the bundled Forest Cover demonstration")
    p.add_argument("--data", default=None,
                   help="optional full covertype CSV; never downloaded")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_demo_covertype)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KernelError as exc:
        print(f"kernel error: {exc}", file=sys.stderr)
        return EXIT_KERNEL
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # an output that cannot be written; inputs raise ValidationError
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
