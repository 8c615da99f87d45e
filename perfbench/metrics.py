"""The benchmark's metric catalogue: every metric's name and unit, in the
order ``run.py`` reports them and ``BENCHMARK.json`` lists them."""

END_TO_END = (
    ("setup_s", "s"),
    ("fit_rows_per_s", "rows/s"),
    ("items_per_s", "items/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)

MODEL_READY_KINDS = ("statistical_bin", "one_hot_encode", "pca_project", "standardize")
INTERPRETABLE_KINDS = ("semantic_bin", "impute_flagged", "aggregate_numeric",
                       "hierarchy_rollup", "abstract_concept")
DEMO_KINDS = MODEL_READY_KINDS + INTERPRETABLE_KINDS

# Self time per round of each span, in seconds.
SELF_TIME_LAYERS = (
    "table.read_s", "table.validate_s", "table.write_s",
    *(f"transforms.{kind}.apply_s" for kind in DEMO_KINDS),
    *(f"transforms.{kind}.fit_s" for kind in DEMO_KINDS),
    "pipeline.run_self_s", "pipeline.display_formats_s", "pipeline.fit_self_s",
    "pipeline.fit_apply_s", "pipeline.save_s",
    "lineage.to_data_s", "lineage.json_s",
    "explain.read_s", "explain.map_s", "explain.check_s", "explain.write_s",
)

PER_LAYER = (
    *((name, "s/round") for name in SELF_TIME_LAYERS),
    ("pipeline.load_s", "s"),
    ("table.tables_built", "count/round"),
    ("transforms.cells_out", "count/round"),
    ("lineage.records_per_row", "count/row"),
    ("explain.max_conservation_delta", "abs"),
    ("runtime.gc_s", "s/round"),
    ("runtime.gc_gen2_collections", "count/round"),
    ("runtime.tracing_overhead_ratio", "ratio"),
    ("runtime.span_coverage_ratio", "ratio"),
)

