#!/usr/bin/env bash
# Runs every CLI path that turns a pole plan into poles twice and checks
# that the second run writes the same bytes (bitwise determinism per seed):
# the three figure experiments at n = 100, the sign experiment once more at
# its default tolerance 1e-8 (fig3-tol*.csv: the runs stop where the
# estimates first reach it, so the stopping rule runs, not only the
# recorded estimates), a custom update with the extended plan, with the
# three Zolotarev strategies (quasi-optimal, inverse square root and sign
# poles, whose nodes come from SciPy's elliptic functions) and with two
# pole files, a two-sided custom update of exp (--matrix-c), and the
# sylvester subcommand at an even and at an odd step count.  One more
# custom update and one more sylvester run (the default Zolotarev sign
# pairs, paired steps on real data) go above the desk scale
# (n = 600 > ORACLE_MAX_N).  The custom update has no true errors there,
# and a sylvester run, at every n, evaluates a step only at a checkpoint
# of the schedule, where it records the step's residual; the n = 600 run
# must record at least one.  In these runs the small problem of the step
# that an estimate reads is solved again from the leading blocks of the
# bases when it was not evaluated, and the CSVs have empty cells at every
# step that is not evaluated, the first step of a pair included.  A custom update on a dense random
# symmetric A of n = 60 (no narrow band, so it is stored dense) runs the
# Hermitian probe and the Hermitian fill of the compression on dense
# storage, and a two-sided custom update on a dense random non-symmetric A
# of n = 60 takes the compression's new rows from products with A* on
# dense storage.  No file that a run writes may hold "nan".
#
#   bash .github/cli-determinism.sh WORKDIR
#
# Run from the repository root.  At n = 100 the figure bases fill C^n
# before the default m_max: the lucky-breakdown path, and the band LUs and
# solves of diagonal operators.  The second pole file ends in a complex
# conjugate pair, which the real basis of the custom update takes as one
# paired step; its run at --m-max 31 ends on the first pole of a pair,
# which takes a single complex step, and so does the sylvester run at
# --m-max 21 (Leja-ordered Zolotarev sign pairs).  A complex seed (Bc) on
# the real A gives a complex basis, which takes each pole of a pair as a
# single step, the second through the LU of the first, conjugated.
set -euo pipefail
work="$1"
in="$work/in"
mkdir -p "$in"
PYTHONPATH=src python - "$in" <<'EOF'
import sys

import numpy as np

from rkupdate.mmio import write_matrix
from rkupdate.rng import normal_block

d, n = sys.argv[1], 60
# a shifted path-graph Laplacian (Hermitian positive definite) with a
# rank-one update, and a Sylvester problem with bidiagonal coefficients
A = np.diag(np.r_[1.0, np.full(n - 2, 2.0), 1.0] + 1e-2) - np.eye(n, k=1) - np.eye(n, k=-1)
lam = np.logspace(-1.0, 1.0, n)
for name, M in [("A", A), ("B", normal_block(1, n, 1)), ("J", np.eye(1)),
                ("A1", np.diag(lam) + np.diag(0.3 * lam[:-1], 1)),
                ("A2", -np.diag(1.37 * lam) - np.diag(0.3 * lam[:-1], -1)),
                ("B1", normal_block(2, n, 2)), ("C2", normal_block(3, n, 2))]:
    write_matrix(f"{d}/{name}.mtx", M)
# the same Laplacian at n = 600, above the desk scale
n = 600
A = np.diag(np.r_[1.0, np.full(n - 2, 2.0), 1.0] + 1e-2) - np.eye(n, k=1) - np.eye(n, k=-1)
write_matrix(f"{d}/A600.mtx", A)
write_matrix(f"{d}/B600.mtx", normal_block(4, n, 1))
# the bidiagonal Sylvester coefficients at n = 600
lam = np.logspace(-1.0, 1.0, n)
for name, M in [("A1-600", np.diag(lam) + np.diag(0.3 * lam[:-1], 1)),
                ("A2-600", -np.diag(1.37 * lam) - np.diag(0.3 * lam[:-1], -1)),
                ("B1-600", normal_block(8, n, 2)), ("C2-600", normal_block(9, n, 2))]:
    write_matrix(f"{d}/{name}.mtx", M)
# a complex seed for the real A of n = 60
write_matrix(f"{d}/Bc.mtx", normal_block(5, 60, 1) + 1j * normal_block(6, 60, 1))
# a dense random symmetric positive definite A of n = 60
M = normal_block(7, 60, 60).real
A = M @ M.T / 60 + 0.5 * np.eye(60)
write_matrix(f"{d}/Adense.mtx", 0.5 * (A + A.T))
# a dense random non-symmetric A of n = 60, its spectrum in the disk of
# radius about 1 around 3
write_matrix(f"{d}/Anonsym.mtx", normal_block(10, 60, 60).real / np.sqrt(60) + 3.0 * np.eye(60))
EOF
printf '# a pole file\n-0.05\n-0.5\n-2.0\ninf\n' > "$in/poles.txt"
printf '# a pole file with a conjugate pair\n-0.5\ninf\n-1+1j\n-1-1j\n' > "$in/poles-pair.txt"
for run in 1 2; do
  out="$work/run$run"
  mkdir -p "$out"
  for experiment in fig1-invsqrt-single-pole fig2-invsqrt-quasiopt fig3-sign; do
    PYTHONPATH=src python -m rkupdate.cli update --experiment "$experiment" \
      --n 100 --tol 0 --out "$out/$experiment.csv"
  done
  PYTHONPATH=src python -m rkupdate.cli update --experiment fig3-sign --n 100 \
    --out "$out/fig3-tol.csv"
  for poles in extended quasi-optimal:4 zolotarev-invsqrt:4 zolotarev-sign:4 \
      "$in/poles.txt" "$in/poles-pair.txt"; do
    name="$(basename "$poles" .txt)"
    PYTHONPATH=src python -m rkupdate.cli update --experiment custom \
      --matrix-a "$in/A.mtx" --matrix-b "$in/B.mtx" --matrix-j "$in/J.mtx" \
      --poles "$poles" --m-max 30 --tol 0 --out "$out/custom-${name/:/-}.csv"
  done
  PYTHONPATH=src python -m rkupdate.cli update --experiment custom \
    --matrix-a "$in/A.mtx" --matrix-b "$in/B.mtx" --matrix-j "$in/J.mtx" \
    --poles "$in/poles-pair.txt" --m-max 31 --tol 0 --out "$out/custom-poles-pair-31.csv"
  PYTHONPATH=src python -m rkupdate.cli update --experiment custom \
    --matrix-a "$in/A.mtx" --matrix-b "$in/Bc.mtx" --matrix-j "$in/J.mtx" \
    --poles "$in/poles-pair.txt" --m-max 30 --tol 0 --out "$out/custom-complex-seed.csv"
  PYTHONPATH=src python -m rkupdate.cli update --experiment custom \
    --matrix-a "$in/Adense.mtx" --matrix-b "$in/B.mtx" --matrix-j "$in/J.mtx" \
    --poles quasi-optimal:4 --m-max 30 --tol 0 --out "$out/custom-dense.csv"
  # a two-sided update (C in place of J): the coupling block of the
  # general mode, from the eigendecompositions of the two diagonal blocks
  PYTHONPATH=src python -m rkupdate.cli update --experiment custom \
    --matrix-a "$in/A1.mtx" --matrix-b "$in/B1.mtx" --matrix-c "$in/C2.mtx" \
    --function exp --poles "$in/poles.txt" --m-max 20 --tol 0 \
    --out "$out/custom-two-sided-exp.csv"
  PYTHONPATH=src python -m rkupdate.cli update --experiment custom \
    --matrix-a "$in/Anonsym.mtx" --matrix-b "$in/B1.mtx" --matrix-c "$in/C2.mtx" \
    --function exp --poles "$in/poles.txt" --m-max 20 --tol 0 \
    --out "$out/custom-two-sided-dense.csv"
  PYTHONPATH=src python -m rkupdate.cli update --experiment custom \
    --matrix-a "$in/A600.mtx" --matrix-b "$in/B600.mtx" --matrix-j "$in/J.mtx" \
    --poles extended --m-max 80 --tol 1e-10 --out "$out/custom-n600.csv"
  for m in 20 21; do
    PYTHONPATH=src python -m rkupdate.cli sylvester --matrix-a1 "$in/A1.mtx" \
      --matrix-a2 "$in/A2.mtx" --matrix-b1 "$in/B1.mtx" --matrix-c2 "$in/C2.mtx" \
      --m-max "$m" --tol 0 --out "$out/sylvester$([ "$m" = 21 ] && echo -odd)"
  done
  PYTHONPATH=src python -m rkupdate.cli sylvester --matrix-a1 "$in/A1-600.mtx" \
    --matrix-a2 "$in/A2-600.mtx" --matrix-b1 "$in/B1-600.mtx" --matrix-c2 "$in/C2-600.mtx" \
    --m-max 40 --tol 0 --out "$out/sylvester-n600"
  # no file written holds "nan": a step without a value is an empty cell
  # (a bare "! grep" would not stop the script: set -e ignores negated commands)
  if grep -il nan "$out"/* >&2; then
    echo "the files above hold nan" >&2
    exit 1
  fi
done
for f in "$work"/run1/*; do
  cmp "$f" "$work/run2/${f##*/}"
done
# the residual column of the n = 600 sylvester run holds a value
if ! awk -F, 'NR > 1 && $2 != "" {found = 1} END {exit !found}' \
    "$work/run1/sylvester-n600-residuals.csv"; then
  echo "sylvester-n600-residuals.csv holds no residual" >&2
  exit 1
fi
