"""Reference contribution mapping: the per-vector dict walk over the fitted
steps that the compiled plans in ``featurespace.explain`` replace. Tests
require the plans to reproduce it value for value, including signed zeros
and rounding, and error for error."""

from __future__ import annotations

from featurespace.errors import MappingError
from featurespace.explain import ContributionVector, MappedContributions
from featurespace.transforms import pca_redistribution_weights

IDENTITY_KINDS = ("standardize", "unstandardize", "statistical_bin", "semantic_bin",
                  "render_statement", "unrender_statement", "hierarchy_rollup")
PCA_NOTE = ("pca_project: contributions redistributed to inputs by squared "
            "loadings; this is an approximation and lowers explanation fidelity")


def _keep(cfg) -> bool:
    return bool(cfg.get("keep_original") or cfg.get("keep_inputs"))


def _group_total(values, names, counts) -> float:
    total = 0.0
    for name in names:
        total += values[name]
        counts[name] += 1
    return total


def _forward_step(fstep, values, expose_flags, notes, exposed):
    kind, cfg = fstep.step.kind, fstep.step.config
    counts = {name: 0 for name in fstep.input_schema.names}
    out = {}
    if kind == "one_hot_decode":
        out[cfg["target"]] = _group_total(values, cfg["group"], counts)
    elif kind in IDENTITY_KINDS:
        if _keep(cfg):
            out[cfg["target"]] = 0.0
        else:
            out[cfg["target"]] = values[cfg["feature"]]
            counts[cfg["feature"]] += 1
    elif kind in ("aggregate_numeric", "abstract_concept"):
        out[cfg["target"]] = (0.0 if _keep(cfg)
                              else _group_total(values, cfg["inputs"], counts))
    elif kind == "impute_flagged":
        out[cfg["flag_name"]] = 0.0
    elif kind != "link_raw":
        raise MappingError(
            f"step ({kind}) has no contribution rule in the forward direction; "
            "map against the pipeline that produced the model-ready schema instead")
    return _pass_through(fstep.output_schema.names, values, out, counts)


def _reverse_step(fstep, values, expose_flags, notes, exposed):
    kind, cfg = fstep.step.kind, fstep.step.config
    counts = {name: 0 for name in fstep.output_schema.names}
    out = {}
    if kind == "one_hot_encode":
        out[cfg["feature"]] = _group_total(values, cfg["names"], counts)
    elif kind in IDENTITY_KINDS:
        source, target = cfg["feature"], cfg["target"]
        if _keep(cfg):
            out[source] = values[source] + values[target]
            counts[source] += 1
        else:
            out[source] = values[target]
        counts[target] += 1
    elif kind == "impute_flagged":
        feature, flag = cfg["feature"], cfg["flag_name"]
        if expose_flags:
            out[feature] = values[feature]
            exposed[flag] = exposed.get(flag, 0.0) + values[flag]
        else:
            out[feature] = values[feature] + values[flag]
        counts[feature] += 1
        counts[flag] += 1
    elif kind == "pca_project":
        loadings = (fstep.fit_state or cfg)["loadings"]
        weights = pca_redistribution_weights(loadings)
        names = [cfg["name_template"].format(i=i + 1) for i in range(cfg["components"])]
        shares = {name: 0.0 for name in cfg["inputs"]}
        for k, comp in enumerate(names):
            for i, input_name in enumerate(cfg["inputs"]):
                shares[input_name] += values[comp] * weights[k][i]
            counts[comp] += 1
        out.update(shares)
        notes.append(PCA_NOTE)
    elif kind != "link_raw":
        raise MappingError(f"step ({kind}) has no contribution rule in the reverse direction")
    return _pass_through(fstep.input_schema.names, values, out, counts)


def _pass_through(names, values, out, counts):
    for name in names:
        if name not in out:
            if name not in values:
                raise MappingError(f"feature {name!r} appeared without a mapping rule")
            out[name] = values[name]
            counts[name] += 1
    return out, counts


def reference_map(fitted, contrib: ContributionVector,
                  expose_flags: bool = False) -> MappedContributions:
    numbered = tuple(enumerate(fitted.steps, start=1))
    if fitted.direction == "to_interpretable":
        expected, steps, mapper, final = (fitted.input_schema, numbered, _forward_step,
                                          fitted.output_schema)
    else:
        expected, steps, mapper, final = (fitted.output_schema, numbered[::-1],
                                          _reverse_step, fitted.input_schema)
    if contrib.schema.names != expected.names:
        raise MappingError(
            "contribution vector does not align with the pipeline's model-ready "
            f"schema: got {list(contrib.schema.names)}, expected {list(expected.names)}")
    values = contrib.as_dict()
    notes, exposed, audit = [], {}, []
    for number, fstep in steps:
        values, counts = mapper(fstep, values, expose_flags, notes, exposed)
        bad = {name: c for name, c in counts.items() if c != 1}
        if bad:
            raise MappingError(f"step {number} ({fstep.step.kind}): contribution "
                               f"partition violated (consumption counts {bad})")
        audit.append((number, counts))
    vector = ContributionVector(final, tuple(values[name] for name in final.names),
                                contrib.base_value)
    return MappedContributions(vector, tuple(notes), dict(exposed), tuple(audit))
