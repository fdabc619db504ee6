#!/usr/bin/env bash
# Runs every CLI path that turns a pole plan into poles twice and checks
# that the second run writes the same bytes (bitwise determinism per seed):
# the three figure experiments at n = 100, the sign experiment once more at
# its default tolerance 1e-8 (fig3-tol*.csv: the runs stop where the
# estimates first reach it, so the stopping rule runs, not only the
# recorded estimates), a custom update with the extended plan, with the
# three Zolotarev strategies (quasi-optimal, inverse square root and sign
# poles, whose nodes come from SciPy's elliptic functions) and with three
# pole files, two two-sided custom updates of exp (--matrix-c), one with
# the exp-single strategy, and the sylvester subcommand at an even and at
# an odd step count.  One more
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
# dense storage.  The custom updates of the plan loop also write their
# summary lines, as do the figure experiments.  Two more, on B scaled by
# 2^-100 and J by 2^200 and on B scaled by 2^510 and J by 2^-1020, whose
# D = B J B* is the unscaled one bit for bit, must each write the CSV and
# the summary of the unscaled run with the same pole file: the rank test of
# the orthonormalization is scale-free, and no norm of a seed of large norm
# overflows (the sums of squares of 2^510 B's blocks would).  A sylvester
# run on B1 scaled by 2^-100 and C2 by 2^100 must write the unscaled run's
# two factors, residuals and summary: the directions that the residual
# reads are scale-free too.  No file that a run writes may hold "nan".
#
#   bash .github/cli-determinism.sh WORKDIR
#
# Run from the repository root.  At n = 100 the figure bases fill C^n
# before the default m_max: the lucky-breakdown path, and the band LUs and
# solves of diagonal operators.  The squared basis of each fig3 alg4 run
# (two columns per step) fills C^n at step 50 and ends converged on its
# breakdown at step 51: both alg4 summary lines must read
# "converged=true iterations=50".  The second pole file ends in a complex
# conjugate pair, which the real basis of the custom update takes as one
# paired step; its run at --m-max 31 ends on the first pole of a pair,
# which takes a single complex step, and so does the sylvester run at
# --m-max 21 (Leja-ordered Zolotarev sign pairs).  The third pole file
# (-0.5 and the pair -1 +- 1j) pairs at the odd offsets 1, 4, 7, ... of
# its cyclic plan, and its run at --m-max 29 ends on the single complex
# step 29; its CSV must show exactly those pairs.  A complex seed (Bc) on
# the real A gives a complex basis, which takes each pole of a pair as a
# single step, the second through the LU of the first, conjugated.
set -euo pipefail
work="$1"
in="$work/in"
mkdir -p "$in"
PYTHONPATH=src python - "$in" <<'EOF'
import sys

import numpy as np

from rkupdate.mmio import read_matrix, write_matrix
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
# B scaled by 2**-100 and J by 2**200, and B by 2**510 and J by 2**-1020,
# which leave D = B J B* as it is bit for bit, and B1 scaled by 2**-100 and
# C2 by 2**100, which leave B1 C2* as it is; the files must hold the scaled
# entries exactly (a writer that kept fewer than 17 significant digits
# would not)
for name, scale, tag in [("B", 2.0**-100, "scaled"), ("J", 2.0**200, "scaled"),
                         ("B", 2.0**510, "scaled-up"), ("J", 2.0**-1020, "scaled-up"),
                         ("B1", 2.0**-100, "scaled"), ("C2", 2.0**100, "scaled")]:
    M = scale * read_matrix(f"{d}/{name}.mtx")
    write_matrix(f"{d}/{name}-{tag}.mtx", M)
    assert np.array_equal(read_matrix(f"{d}/{name}-{tag}.mtx"), M), f"{name}-{tag}.mtx"
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
printf '# a pole file whose pairs start at odd offsets\n-0.5\n-1+1j\n-1-1j\n' > "$in/poles-odd.txt"
for run in 1 2; do
  out="$work/run$run"
  mkdir -p "$out"
  for experiment in fig1-invsqrt-single-pole fig2-invsqrt-quasiopt fig3-sign; do
    PYTHONPATH=src python -m rkupdate.cli update --experiment "$experiment" \
      --n 100 --tol 0 --out "$out/$experiment.csv" > "$out/$experiment.txt"
  done
  PYTHONPATH=src python -m rkupdate.cli update --experiment fig3-sign --n 100 \
    --out "$out/fig3-tol.csv"
  for poles in extended quasi-optimal:4 zolotarev-invsqrt:4 zolotarev-sign:4 \
      "$in/poles.txt" "$in/poles-pair.txt"; do
    name="$(basename "$poles" .txt)"
    PYTHONPATH=src python -m rkupdate.cli update --experiment custom \
      --matrix-a "$in/A.mtx" --matrix-b "$in/B.mtx" --matrix-j "$in/J.mtx" \
      --poles "$poles" --m-max 30 --tol 0 --out "$out/custom-${name/:/-}.csv" \
      > "$out/custom-${name/:/-}.txt"
  done
  # each scaled B and J: the same CSV and summary as the unscaled run
  for tag in scaled scaled-up; do
    PYTHONPATH=src python -m rkupdate.cli update --experiment custom \
      --matrix-a "$in/A.mtx" --matrix-b "$in/B-$tag.mtx" --matrix-j "$in/J-$tag.mtx" \
      --poles "$in/poles-pair.txt" --m-max 30 --tol 0 --out "$out/custom-$tag.csv" \
      > "$out/custom-$tag.txt"
    cmp "$out/custom-poles-pair.csv" "$out/custom-$tag.csv"
    cmp "$out/custom-poles-pair.txt" "$out/custom-$tag.txt"
  done
  PYTHONPATH=src python -m rkupdate.cli update --experiment custom \
    --matrix-a "$in/A.mtx" --matrix-b "$in/B.mtx" --matrix-j "$in/J.mtx" \
    --poles "$in/poles-pair.txt" --m-max 31 --tol 0 --out "$out/custom-poles-pair-31.csv"
  PYTHONPATH=src python -m rkupdate.cli update --experiment custom \
    --matrix-a "$in/A.mtx" --matrix-b "$in/B.mtx" --matrix-j "$in/J.mtx" \
    --poles "$in/poles-odd.txt" --m-max 29 --tol 0 --out "$out/custom-poles-odd-29.csv"
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
  # the single repeated pole of exp, on A2, whose numerical range is left of 0
  PYTHONPATH=src python -m rkupdate.cli update --experiment custom \
    --matrix-a "$in/A2.mtx" --matrix-b "$in/B1.mtx" --matrix-c "$in/C2.mtx" \
    --function exp --poles exp-single --m-max 20 --tol 0 \
    --out "$out/custom-exp-single.csv"
  PYTHONPATH=src python -m rkupdate.cli update --experiment custom \
    --matrix-a "$in/A600.mtx" --matrix-b "$in/B600.mtx" --matrix-j "$in/J.mtx" \
    --poles extended --m-max 80 --tol 1e-10 --out "$out/custom-n600.csv"
  for run_m in sylvester:20 sylvester-odd:21; do
    PYTHONPATH=src python -m rkupdate.cli sylvester --matrix-a1 "$in/A1.mtx" \
      --matrix-a2 "$in/A2.mtx" --matrix-b1 "$in/B1.mtx" --matrix-c2 "$in/C2.mtx" \
      --m-max "${run_m#*:}" --tol 0 --out "$out/${run_m%:*}" > "$out/${run_m%:*}.txt"
  done
  # the scaled B1 and C2: the same solution factors, residuals and summary
  PYTHONPATH=src python -m rkupdate.cli sylvester --matrix-a1 "$in/A1.mtx" \
    --matrix-a2 "$in/A2.mtx" --matrix-b1 "$in/B1-scaled.mtx" --matrix-c2 "$in/C2-scaled.mtx" \
    --m-max 20 --tol 0 --out "$out/sylvester-scaled" > "$out/sylvester-scaled.txt"
  for part in -left.mtx -right.mtx -residuals.csv .txt; do
    cmp "$out/sylvester$part" "$out/sylvester-scaled$part"
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
# both fig3 alg4 runs reach the full space and end on its breakdown
for degree in 10 2; do
  if ! grep -q "^fig3-sign-alg4-deg$degree: converged=true iterations=50 " \
      "$work/run1/fig3-sign.txt"; then
    echo "fig3-sign-alg4-deg$degree does not end converged at step 50" >&2
    exit 1
  fi
done
# the three-pole file pairs at offsets 1, 4, 7, ...: the pairs' first
# steps 2, 5, ..., 26 are the only rows without a true error, and the run
# ends on the single complex step 29
if [ "$(awk -F, 'NR > 1 && $2 == "" {gaps = gaps $1 " "} END {print gaps $1}' \
    "$work/run1/custom-poles-odd-29.csv")" != "2 5 8 11 14 17 20 23 26 29" ]; then
  echo "custom-poles-odd-29.csv does not pair at offsets 1, 4, 7, ..." >&2
  exit 1
fi
# the residual column of the n = 600 sylvester run holds a value
if ! awk -F, 'NR > 1 && $2 != "" {found = 1} END {exit !found}' \
    "$work/run1/sylvester-n600-residuals.csv"; then
  echo "sylvester-n600-residuals.csv holds no residual" >&2
  exit 1
fi
