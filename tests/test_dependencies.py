import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Importing scipy costs about 22 MB of resident memory; the package needs
# numpy only, so a fit and a rank search must not load it.
_FIT_AND_RANK_SEARCH = """
import sys
import numpy as np
from maxnorm_completion import (ConstraintSet, NoiseModel, PartialMatrix, RankSearchConfig,
                                SolverConfig, estimate_rank, fit_pgd, make_distribution,
                                observe, sample_indices)
M0 = np.outer(np.linspace(-1, 1, 6), np.linspace(1, -1, 5))
idx = sample_indices(make_distribution("uniform", 6, 5), 60, seed=1)
obs = observe(M0, idx, NoiseModel("gaussian", 0.1), seed=1)
cfg = SolverConfig(k=2, max_iters=5, seed=0)
fit_pgd(obs, ConstraintSet(alpha=1.0, radius=2.0), cfg)
estimate_rank(PartialMatrix.from_observations(obs), RankSearchConfig(1.0, 3, cfg))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_fit_and_rank_search_do_not_import_scipy():
    out = subprocess.run([sys.executable, "-c", _FIT_AND_RANK_SEARCH], check=True,
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "[]"
