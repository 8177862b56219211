"""Every narrative script under demos/ runs to completion, and the
README's quick start prints what the README says it prints."""

import re
import runpy
from pathlib import Path

import pytest

from tradenet import (GofConfig, SimConfig, build_network, compute_features,
                      degree_sequences, fit_tail, simulate)

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_numbers():
    """The trade count, out-degree x_min and correlation that the README
    quotes for its quick-start stock, without the bootstrap: a change to
    the simulated corpus that moves them fails here."""
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    quoted = re.search(r"one manipulated stock \(([\d,]+) trades\).*? `x_min` (\d+) and "
                       r"p-value 0, and the same-day return/ratio correlation is about "
                       r"(−?\d\.\d+)\.", readme)
    assert quoted, "the README's quick-start numbers moved or were reworded"
    res = simulate(SimConfig(rng_seed=7, manipulated=True))
    deg = degree_sequences(build_network(res.log))
    cfg = GofConfig(bootstrap_replicas=0)
    fit = fit_tail(deg.out_deg[deg.out_deg > 0], cfg)
    feats = compute_features(res.log, cfg)
    assert res.log.n_records == int(quoted[1].replace(",", ""))
    assert fit.x_min == int(quoted[2])
    assert f"{feats.return_ratio_corr:.3f}" == quoted[3].replace("−", "-")
