"""Seeded inputs for the benchmark: covertype rows and contribution vectors.

Rows are the bundled 3-row covertype sample, tiled and perturbed within the
domains the demo manifests and pipelines declare. The three unperturbed
sample rows are embedded at seeded positions so their outputs can be compared
with the golden CSVs. Every input is CSV text, built only from ``random.Random``
seeded by the caller, so the same seed gives the same bytes.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass

# Elevation must stay inside the model-ready demo's pinned bin range.
ELEVATION_RANGE = (1859, 3858)
HILLSHADE_RANGE = (0, 255)
WILDERNESS = ("Rawah", "Neota", "Comache Peak", "Cache la Poudre")
SOIL = (
    "Cathedral family - Rock outcrop complex, extremely stony",
    "Como - Legault families complex, extremely stony",
    "Leighcan family, till substratum, extremely bouldery",
    "Troutville family, very stony",
)


def _clip(value: int, bounds: tuple[int, int]) -> int:
    return min(max(value, bounds[0]), bounds[1])


def _csv_line(fields) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(fields)
    return out.getvalue()


@dataclass(frozen=True)
class RowSet:
    """CSV text of generated rows and where the golden sample rows sit.

    ``golden_positions[i]`` is the 0-based data-row index of sample row ``i``.
    """

    header: str
    lines: tuple[str, ...]
    golden_positions: tuple[int, ...]
    missing_elevation: int

    def text(self, start: int = 0, stop: int | None = None) -> str:
        return self.header + "".join(self.lines[start:stop])


def covertype_rows(seed: int, n_rows: int, missing_rate: float,
                   sample_text: str) -> RowSet:
    """``n_rows`` perturbed covertype rows with the sample rows embedded.

    ``missing_rate`` is the probability that a perturbed row's Elevation is
    MISSING (an empty field); the embedded sample rows are never missing.
    """
    sample = list(csv.reader(io.StringIO(sample_text)))
    header, base_rows = sample[0], sample[1:]
    if n_rows < len(base_rows):
        raise ValueError(f"need at least {len(base_rows)} rows to embed the sample")
    rng = random.Random(seed)
    golden = tuple(rng.sample(range(n_rows), len(base_rows)))
    golden_at = {pos: i for i, pos in enumerate(golden)}
    lines = []
    missing = 0
    for r in range(n_rows):
        if r in golden_at:
            lines.append(_csv_line(base_rows[golden_at[r]]))
            continue
        base = base_rows[rng.randrange(len(base_rows))]
        elevation = _clip(int(base[0]) + round(rng.gauss(0, 300)), ELEVATION_RANGE)
        horizontal = max(0, int(base[1]) + round(rng.gauss(0, 80)))
        vertical = int(base[2]) + round(rng.gauss(0, 25))
        shades = [_clip(int(v) + round(rng.gauss(0, 20)), HILLSHADE_RANGE)
                  for v in base[3:6]]
        wilderness = base[6] if rng.random() < 0.6 else rng.choice(WILDERNESS)
        soil = base[7] if rng.random() < 0.6 else rng.choice(SOIL)
        elevation_text = str(elevation)
        if rng.random() < missing_rate:
            elevation_text = ""
            missing += 1
        lines.append(_csv_line([elevation_text, horizontal, vertical, *shades,
                                wilderness, soil]))
    return RowSet(_csv_line(header), tuple(lines), golden, missing)


def contribution_text(seed: int, names: tuple[str, ...], n_vectors: int) -> str:
    """CSV of ``n_vectors`` seeded contribution vectors over ``names``,
    with a trailing ``__base__`` column, as ``explain-map`` reads them."""
    rng = random.Random(seed)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([*names, "__base__"])
    for _ in range(n_vectors):
        writer.writerow([repr(rng.gauss(0.0, 0.4)) for _ in names]
                        + [repr(rng.uniform(-1.0, 1.0))])
    return out.getvalue()
