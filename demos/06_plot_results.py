"""Charts of an evolve run, made from its artifacts alone.

`kimdiff evolve` writes plain CSV and JSON, so any reader can chart a run.
This script runs evolve on the neutral uniform demo config, reads back its
evolution.csv and spectrum.json with the standard library, and writes
plots/series.csv (one row per series and time) and one SVG line chart per
series: the endpoint masses a and b, the interior L1 norm, and that norm
times exp(lambda_0 t), which levels off at the limit constant once the
leading mode dominates.
"""

import csv
import json
from pathlib import Path

import numpy as np

from kimdiff.cli import main

HERE = Path(__file__).resolve().parent
results = HERE / "output" / "neutral_uniform"
if main(["evolve", "--config", str(HERE / "configs" / "neutral_uniform.json"),
         "--out", str(results)]):
    raise SystemExit("evolve failed")

with open(results / "evolution.csv", newline="") as fh:
    rows = list(csv.DictReader(fh))
t = np.array([float(row["t"]) for row in rows])
series = {key: np.array([float(row[key]) for row in rows]) for key in ("a", "b", "q_l1")}
lam0 = json.loads((results / "spectrum.json").read_text())["lambda"][0]
# exp(lambda_0 t) alone overflows at late times, where q_l1 underflows to 0
with np.errstate(divide="ignore"):
    series["scaled_q_l1"] = np.exp(lam0 * t + np.log(series["q_l1"]))


def svg_line_chart(xs, ys, title, ylabel):
    """A static 640 x 400 SVG line chart with three ticks per axis."""
    width, height = 640, 400
    ml, mr, mt, mb = 70, 20, 40, 50
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + max(abs(y0), 1.0) * 1e-3
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    ticks = "".join(
        f'<text x="{px(tx):.1f}" y="{height - mb + 18}" font-size="11" '
        f'text-anchor="middle">{tx:.3g}</text>'
        f'<text x="{ml - 8}" y="{py(ty) + 4:.1f}" font-size="11" '
        f'text-anchor="end">{ty:.3g}</text>'
        for tx, ty in ((x0 + f * (x1 - x0), y0 + f * (y1 - y0)) for f in (0.0, 0.5, 1.0)))
    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">
<rect width="{width}" height="{height}" fill="white"/>
<text x="{width / 2}" y="24" font-size="14" text-anchor="middle">{title}</text>
<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}"
 fill="none" stroke="#888"/>
{ticks}
<text x="{width / 2}" y="{height - 12}" font-size="12" text-anchor="middle">t</text>
<text x="18" y="{height / 2}" font-size="12" text-anchor="middle"
 transform="rotate(-90 18 {height / 2})">{ylabel}</text>
<polyline fill="none" stroke="#1f6fb2" stroke-width="1.5" points="{points}"/>
</svg>
"""


plots = results / "plots"
plots.mkdir(exist_ok=True)
with open(plots / "series.csv", "w", newline="") as fh:
    writer = csv.writer(fh)  # a float's field is its repr, as in every kimdiff CSV
    writer.writerow(["series", "t", "value"])
    for name, values in series.items():
        writer.writerows((name, ti, v) for ti, v in zip(t.tolist(), values.tolist()))
        (plots / f"{name}.svg").write_text(
            svg_line_chart(t, values, f"{name} vs t", name.replace("_", " ")))
print(f"wrote {plots.relative_to(HERE.parent)}: series.csv and "
      f"{', '.join(f'{name}.svg' for name in series)} for t = {t.min():g}..{t.max():g}")
print(f"exp(lambda_0 t) ||q||_1 at t = {t[-1]:g}: {series['scaled_q_l1'][-1]:.6f} "
      f"(lambda_0 = {lam0:.6f})")
