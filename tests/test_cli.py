import math

import numpy as np
import pytest

import rkupdate.cli as cli
from rkupdate.cli import CSV_HEADER, experiment_fig2, main, write_csv
from rkupdate.mmio import read_matrix, write_matrix
from rkupdate.rng import SplitMix64, normal_block

from conftest import rand_complex, random_hermitian


class TestRng:
    def test_splitmix_deterministic(self):
        a = SplitMix64(1234)
        b = SplitMix64(1234)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_splitmix_known_stream(self):
        # frozen regression values for the splitmix64 stream with seed 0
        gen = SplitMix64(0)
        assert gen.next_u64() == 16294208416658607535

    def test_u64_block_is_the_integer_stream(self):
        gen, ref = SplitMix64(2024), SplitMix64(2024)
        block = gen.u64_block(10_000)
        assert block.dtype == np.uint64
        assert [int(z) for z in block] == [ref.next_u64() for _ in range(10_000)]
        # the state moves on as the scalar stream's does
        assert gen.next_u64() == ref.next_u64()

    def test_signed_uniforms(self):
        x = SplitMix64(0).signed_uniforms(20_000)
        ref = SplitMix64(0)
        assert x[0] == (ref.next_u64() >> 11) * 2.0**-52 - 1.0
        assert x.min() >= -1.0 and x.max() < 1.0
        assert abs(x.mean()) <= 0.02

    def test_normal_block_norm_and_dtype(self):
        W = normal_block(7, 50, 2, norm=100.0)
        assert W.shape == (50, 2)
        assert W.dtype == np.complex128
        assert np.linalg.norm(W) == pytest.approx(100.0)
        assert np.all(W.imag == 0.0)

    def test_normal_moments(self):
        x = SplitMix64(42).normal(20000)
        assert abs(x.mean()) <= 0.05
        assert abs(x.std() - 1.0) <= 0.05


class TestCSV:
    def test_format(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, [(1, 0.5, math.nan, 2.0), (2, math.nan, 1e-3, math.nan)])
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "1,5.000000000000000e-01,,2.000000000000000e+00"
        assert lines[2] == "2,,1.000000000000000e-03,"
        # 16 significant digits
        assert len(lines[1].split(",")[1].split("e")[0].replace(".", "").lstrip("-")) == 16

    def test_determinism_bitwise(self, tmp_path):
        res1 = experiment_fig2(n=40, seed=11, m_max=8, tol=0.0)
        res2 = experiment_fig2(n=40, seed=11, m_max=8, tol=0.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, res1.rows)
        write_csv(p2, res2.rows)
        assert p1.read_bytes() == p2.read_bytes()


def _write_custom_instance(tmp_path, rng, n=14):
    A, _ = random_hermitian(rng, n, 0.5, 4.0)
    B = 0.4 * rand_complex(rng, n, 1)
    J = np.array([[1.0]])
    write_matrix(tmp_path / "A.mtx", A)
    write_matrix(tmp_path / "B.mtx", B)
    write_matrix(tmp_path / "J.mtx", J)
    return A, B, J


CUSTOM_MODE_ERROR = ("rkupdate: error: custom experiments need exactly one of --matrix-c "
                     "and --matrix-j\n")


class TestMainUpdate:
    def test_custom_run(self, tmp_path, rng, capsys):
        _write_custom_instance(tmp_path, rng)
        out = tmp_path / "run.csv"
        status = main(["update", "--experiment", "custom",
                       "--matrix-a", str(tmp_path / "A.mtx"),
                       "--matrix-b", str(tmp_path / "B.mtx"),
                       "--matrix-j", str(tmp_path / "J.mtx"),
                       "--function", "inv-sqrt",
                       "--poles", "markov-single",
                       "--m-max", "16", "--tol", "1e-8",
                       "--out", str(out)])
        assert status == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) >= 2
        summary = capsys.readouterr().out.strip()
        assert summary.startswith("converged=true")
        assert "iterations=" in summary and "final_error=" in summary

    def test_custom_zero_update(self, tmp_path, rng, capsys):
        A, _, _ = _write_custom_instance(tmp_path, rng)
        write_matrix(tmp_path / "B0.mtx", np.zeros((A.shape[0], 1)))
        out = tmp_path / "zero.csv"
        status = main(["update", "--experiment", "custom",
                       "--matrix-a", str(tmp_path / "A.mtx"),
                       "--matrix-b", str(tmp_path / "B0.mtx"),
                       "--matrix-j", str(tmp_path / "J.mtx"),
                       "--function", "inv-sqrt", "--poles", "markov-single",
                       "--out", str(out)])
        assert status == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2  # header + the single zero row
        assert lines[1].startswith("0,0.0")
        assert "converged=true" in capsys.readouterr().out

    @pytest.mark.parametrize("experiment, defaults", [
        ("custom", ["--m-max", "50", "--tol", "1e-10", "--d", "2"]),
        ("fig2-invsqrt-quasiopt", ["--m-max", "60", "--tol", "1e-12", "--d", "2", "--seed", "6"]),
    ])
    def test_left_out_options_take_the_experiments_defaults(self, tmp_path, rng, capsys,
                                                            experiment, defaults):
        _write_custom_instance(tmp_path, rng)
        argv = ["update", "--experiment", experiment, "--n", "40",
                "--matrix-a", str(tmp_path / "A.mtx"), "--matrix-b", str(tmp_path / "B.mtx"),
                "--matrix-j", str(tmp_path / "J.mtx"), "--poles", "quasi-optimal:4"]
        texts = []
        for given in ([], defaults):
            out = tmp_path / f"run{len(texts)}.csv"
            assert main(argv + given + ["--out", str(out)]) == 0
            texts.append((out.read_text(), capsys.readouterr().out))
        assert texts[0] == texts[1]

    def test_pole_file(self, tmp_path, rng, capsys):
        _write_custom_instance(tmp_path, rng)
        (tmp_path / "poles.txt").write_text("-2.0\ninf\n")
        status = main(["update", "--experiment", "custom",
                       "--matrix-a", str(tmp_path / "A.mtx"),
                       "--matrix-b", str(tmp_path / "B.mtx"),
                       "--matrix-j", str(tmp_path / "J.mtx"),
                       "--function", "inv-sqrt",
                       "--poles", str(tmp_path / "poles.txt"),
                       "--m-max", "8",
                       "--out", str(tmp_path / "o.csv")])
        assert status == 0

    def test_nan_pole_file_is_error_exit(self, tmp_path, rng, capsys):
        _write_custom_instance(tmp_path, rng)
        (tmp_path / "poles.txt").write_text("nan\n-1\n")
        status = main(["update", "--experiment", "custom",
                       "--matrix-a", str(tmp_path / "A.mtx"),
                       "--matrix-b", str(tmp_path / "B.mtx"),
                       "--matrix-j", str(tmp_path / "J.mtx"),
                       "--poles", str(tmp_path / "poles.txt"),
                       "--m-max", "8",
                       "--out", str(tmp_path / "o.csv")])
        assert status == 1
        assert capsys.readouterr().err.startswith("rkupdate: error: pole")
        assert not (tmp_path / "o.csv").exists()

    def test_extended_plan_builds_no_window(self, tmp_path, rng, monkeypatch):
        # only the strategies that read the window or the gap compute spectra
        def no_window(*args, **kwargs):
            raise AssertionError("a spectral window for a plan that reads none")

        monkeypatch.setattr(cli, "SpectralWindow", no_window)
        _write_custom_instance(tmp_path, rng)
        status = main(["update", "--experiment", "custom",
                       "--matrix-a", str(tmp_path / "A.mtx"),
                       "--matrix-b", str(tmp_path / "B.mtx"),
                       "--matrix-j", str(tmp_path / "J.mtx"),
                       "--poles", "extended", "--m-max", "6",
                       "--out", str(tmp_path / "o.csv")])
        assert status == 0

    def test_missing_matrix_is_error_exit(self, tmp_path, capsys):
        status = main(["update", "--experiment", "custom",
                       "--matrix-a", str(tmp_path / "missing.mtx"),
                       "--matrix-b", str(tmp_path / "missing.mtx"),
                       "--matrix-j", str(tmp_path / "missing.mtx"),
                       "--out", str(tmp_path / "o.csv")])
        assert status == 1
        assert "error" in capsys.readouterr().err

    def test_general_mode_with_c(self, tmp_path, rng, capsys):
        n = 12
        A = rand_complex(rng, n, n)
        A /= np.linalg.norm(A, 2)
        B = 0.3 * rand_complex(rng, n, 1)
        C = 0.3 * rand_complex(rng, n, 1)
        for name, M in [("A", A), ("B", B), ("C", C)]:
            write_matrix(tmp_path / f"{name}.mtx", M)
        (tmp_path / "poles.txt").write_text("inf\n")
        # a pole file, and the single repeated pole of exp
        for poles in (str(tmp_path / "poles.txt"), "exp-single"):
            status = main(["update", "--experiment", "custom",
                           "--matrix-a", str(tmp_path / "A.mtx"),
                           "--matrix-b", str(tmp_path / "B.mtx"),
                           "--matrix-c", str(tmp_path / "C.mtx"),
                           "--function", "exp", "--poles", poles,
                           "--m-max", "6", "--tol", "1e-8",
                           "--out", str(tmp_path / "o.csv")])
            assert status == 0

    def test_c_and_j_together_is_error_exit(self, tmp_path, rng, capsys):
        n = 12
        B = rng.standard_normal((n, 1))
        for name, M in [("A", np.diag(np.linspace(1.0, 2.0, n))), ("B", B), ("C", B),
                        ("J", np.eye(1))]:
            write_matrix(tmp_path / f"{name}.mtx", M)
        status = main(["update", "--experiment", "custom",
                       "--matrix-a", str(tmp_path / "A.mtx"),
                       "--matrix-b", str(tmp_path / "B.mtx"),
                       "--matrix-c", str(tmp_path / "C.mtx"),
                       "--matrix-j", str(tmp_path / "J.mtx"),
                       "--poles", "extended", "--m-max", "3",
                       "--out", str(tmp_path / "o.csv")])
        assert status == 1
        assert capsys.readouterr().err == CUSTOM_MODE_ERROR
        assert not (tmp_path / "o.csv").exists()

    def test_neither_c_nor_j_is_error_exit(self, tmp_path, rng, capsys, monkeypatch):
        # checked with the flags, before any matrix is read
        def no_read(path):
            raise AssertionError("a matrix read before the flags are checked")

        monkeypatch.setattr(cli, "read_matrix", no_read)
        status = main(["update", "--experiment", "custom",
                       "--matrix-a", str(tmp_path / "A.mtx"),
                       "--matrix-b", str(tmp_path / "B.mtx"),
                       "--poles", "extended", "--m-max", "3",
                       "--out", str(tmp_path / "o.csv")])
        assert status == 1
        assert capsys.readouterr().err == CUSTOM_MODE_ERROR
        assert not (tmp_path / "o.csv").exists()


class TestMainSylvester:
    def test_end_to_end(self, tmp_path, rng, capsys):
        n1, n2 = 8, 8
        A1 = 0.4 * rand_complex(rng, n1, n1) + 3 * np.eye(n1)
        A2 = 0.4 * rand_complex(rng, n2, n2) - 3 * np.eye(n2)
        B1 = rand_complex(rng, n1, 1)
        C2 = rand_complex(rng, n2, 1)
        for name, M in [("A1", A1), ("A2", A2), ("B1", B1), ("C2", C2)]:
            write_matrix(tmp_path / f"{name}.mtx", M)
        stem = tmp_path / "sylv"
        status = main(["sylvester",
                       "--matrix-a1", str(tmp_path / "A1.mtx"),
                       "--matrix-a2", str(tmp_path / "A2.mtx"),
                       "--matrix-b1", str(tmp_path / "B1.mtx"),
                       "--matrix-c2", str(tmp_path / "C2.mtx"),
                       "--poles", "zolotarev-sign:4",
                       "--m-max", "8", "--tol", "1e-12",
                       "--out", str(stem)])
        assert status == 0
        L = read_matrix(f"{stem}-left.mtx")
        R = read_matrix(f"{stem}-right.mtx")
        Z = L @ R.conj().T
        K = np.kron(np.eye(n2), A1) - np.kron(A2.T, np.eye(n1))
        z_ref = np.linalg.solve(K, -(B1 @ C2.conj().T).reshape(-1, order="F"))
        Z_ref = z_ref.reshape(n1, n2, order="F")
        assert np.linalg.norm(Z - Z_ref, 2) <= 1e-8 * np.linalg.norm(Z_ref, 2)
        res_lines = (tmp_path / "sylv-residuals.csv").read_text().splitlines()
        assert res_lines[0] == "m,residual,estimate"
        # residuals decrease to the stagnation floor; a step that the
        # checkpoint schedule does not evaluate has an empty cell
        res = [float(cell) for l in res_lines[1:] if (cell := l.split(",")[1])]
        assert min(res) <= 1e-8


    def test_pole_file_takes_no_eigenvalues(self, tmp_path, rng, monkeypatch, capsys):
        # only zolotarev-sign reads the gap, and so the dense eigenvalues
        def no_eigvals(*args, **kwargs):
            raise AssertionError("dense eigenvalues for a plan that reads none")

        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        A1 = np.diag(np.linspace(1.0, 2.0, 8))
        for name, M in [("A1", A1), ("A2", -A1), ("B1", rand_complex(rng, 8, 1)),
                        ("C2", rand_complex(rng, 8, 1))]:
            write_matrix(tmp_path / f"{name}.mtx", M)
        (tmp_path / "poles.txt").write_text("1j\n-1j\n")
        status = main(["sylvester",
                       "--matrix-a1", str(tmp_path / "A1.mtx"),
                       "--matrix-a2", str(tmp_path / "A2.mtx"),
                       "--matrix-b1", str(tmp_path / "B1.mtx"),
                       "--matrix-c2", str(tmp_path / "C2.mtx"),
                       "--poles", str(tmp_path / "poles.txt"), "--m-max", "4",
                       "--out", str(tmp_path / "sylv")])
        assert status == 0


class TestExitSemantics:
    def test_nonconvergence_exits_zero(self, tmp_path, rng, capsys):
        _write_custom_instance(tmp_path, rng)
        out = tmp_path / "nc.csv"
        status = main(["update", "--experiment", "custom",
                       "--matrix-a", str(tmp_path / "A.mtx"),
                       "--matrix-b", str(tmp_path / "B.mtx"),
                       "--matrix-j", str(tmp_path / "J.mtx"),
                       "--function", "inv-sqrt",
                       "--poles", "markov-single",
                       "--m-max", "3", "--tol", "1e-16",
                       "--out", str(out)])
        assert status == 0
        assert "converged=false" in capsys.readouterr().out

    def test_basis_filling_the_space_exits_zero(self, tmp_path, capsys):
        # at n = 100 the fig1 basis spans all of C^n before m_max: the run
        # ends on its lucky breakdown, with every row finite
        out = tmp_path / "fig1.csv"
        status = main(["update", "--experiment", "fig1-invsqrt-single-pole",
                       "--n", "100", "--tol", "0", "--out", str(out)])
        assert status == 0
        assert "converged=true iterations=100" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert len(lines) == 101 and "nan" not in out.read_text().lower()
        assert all(np.isfinite(float(v)) for line in lines[1:] for v in line.split(",") if v)

    def test_several_results_go_to_one_csv_each(self, tmp_path, capsys):
        # fig3 returns four variants: each is written next to --out, named
        # after its stem and the variant, with its own summary line
        assert main(["update", "--experiment", "fig3-sign", "--n", "20",
                     "--out", str(tmp_path / "fig3.csv")]) == 0
        variants = ["alg4-deg10", "alg3-deg10", "alg4-deg2", "alg3-deg2"]
        summaries = capsys.readouterr().out.splitlines()
        assert [s.split(": ")[0] for s in summaries] == [f"fig3-sign-{v}" for v in variants]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"fig3-{v}.csv" for v in variants)
        for v, summary in zip(variants, summaries):
            lines = (tmp_path / f"fig3-{v}.csv").read_text().splitlines()
            assert lines[0] == CSV_HEADER
            # the m column is the subspace dimension: two columns per step of
            # the squared basis; the last row is the summary's step
            step = 2 if v.startswith("alg4") else 1
            steps = int(summary.split("iterations=")[1].split()[0])
            assert [int(line.split(",")[0]) for line in lines[1:]] == list(
                range(step, step * steps + 1, step))

    def test_cli_determinism_bitwise(self, tmp_path, rng, capsys):
        _write_custom_instance(tmp_path, rng)
        argsets = []
        for name in ("r1.csv", "r2.csv"):
            args = ["update", "--experiment", "custom",
                    "--matrix-a", str(tmp_path / "A.mtx"),
                    "--matrix-b", str(tmp_path / "B.mtx"),
                    "--matrix-j", str(tmp_path / "J.mtx"),
                    "--function", "inv-sqrt", "--poles", "markov-single",
                    "--m-max", "8", "--tol", "1e-9",
                    "--out", str(tmp_path / name)]
            assert main(args) == 0
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
