import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hardy_cesaro
from hardy_cesaro.cli import main
from min_reference import min_kernel_constant

KERNEL = {"n": 1, "psi": {"kind": "power_beta", "c": 0, "e": 0},
          "curves": [{"kind": "power", "b": 1}]}
XIAO_EXP = {"m": 1, "n": 1, "d": 1, "alpha_i": [0], "p_i": [2], "q_i": [2],
            "lambda_i": [0], "gamma_i": [0]}


def child_env():
    """Environment in which a child interpreter imports this package."""
    src = str(Path(hardy_cesaro.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_constant_job_xiao(tmp_path):
    out = tmp_path / "out.csv"
    cfg = {"job": "constant", "kind": "Xiao", "exponents": XIAO_EXP,
           "kernel": KERNEL, "output": str(out)}
    code = main(["--config", str(write_config(tmp_path, cfg))])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,params_hash,value,status,abs_error"
    fields = lines[1].split(",")
    assert fields[0] == "Xiao"
    assert math.isclose(float(fields[2]), 2.0, rel_tol=1e-10)
    assert fields[3] == "converged"


def test_verify_sharp_job(tmp_path):
    out = tmp_path / "verify.csv"
    cfg = {"job": "verify", "theorem": "T31_sharp",
           "exponents": {"m": 1, "n": 1, "d": 1, "alpha_i": [0], "p_i": [1],
                         "q_i": [1], "lambda_i": [1], "gamma_i": [0]},
           "kernel": KERNEL, "weights": [{"degree": 0}], "output": str(out)}
    code = main(["--config", str(write_config(tmp_path, cfg))])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "T31_sharp"
    assert row[5] == "true"


def test_config_error_exit_2(tmp_path):
    bad = dict(XIAO_EXP, q_i=[0])
    cfg = {"job": "constant", "kind": "Xiao", "exponents": bad,
           "kernel": KERNEL, "output": str(tmp_path / "x.csv")}
    assert main(["--config", str(write_config(tmp_path, cfg))]) == 2


def test_malformed_json_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["--config", str(path)]) == 2


def test_missing_field_exit_2(tmp_path):
    cfg = {"job": "constant", "exponents": XIAO_EXP, "kernel": KERNEL,
           "output": str(tmp_path / "x.csv")}
    assert main(["--config", str(write_config(tmp_path, cfg))]) == 2


def test_unknown_job_exit_2(tmp_path):
    cfg = {"job": "dance", "output": str(tmp_path / "x.csv")}
    assert main(["--config", str(write_config(tmp_path, cfg))]) == 2


def test_norm_job_schema(tmp_path):
    out = tmp_path / "norms.csv"
    cfg = {"job": "norm", "d": 1,
           "space": {"alpha": 0, "lambda": 0, "p": 1, "q": 1},
           "weight": {"degree": 0},
           "profiles": [{"kind": "truncated", "a": -2, "c": 1, "R": 1, "id": "tpl"}],
           "output": str(out)}
    code = main(["--config", str(write_config(tmp_path, cfg))])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("function_id,alpha,lambda,p,q,gamma,value,status,"
                        "k_min,k_max,sup_index,tail_bound")
    fields = lines[1].split(",")
    assert fields[0] == "tpl"
    assert math.isclose(float(fields[6]), 2.0, rel_tol=1e-10)
    assert fields[7] == "finite"


@pytest.mark.filterwarnings("error")
def test_norm_job_steep_power_law_is_a_verdict(tmp_path):
    # its shells pass 2**1024 inside the default window: the job used to
    # exit 1 with an OverflowError and write no CSV
    out = tmp_path / "steep.csv"
    cfg = {"job": "norm", "d": 1,
           "space": {"alpha": 0, "lambda": 0.5, "p": 1, "q": 1},
           "weight": {"degree": 0},
           "profiles": [{"kind": "power", "a": 30.0, "id": "steep"}],
           "output": str(out)}
    assert main(["--config", str(write_config(tmp_path, cfg))]) == 0
    fields = out.read_text().splitlines()[1].split(",")
    assert fields[0] == "steep"
    assert fields[7] in ("inconclusive", "infinite")


def test_sweep_xiao_p_values(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = {"job": "sweep",
           "sweep": {"parameter": "exponents.p_i.0",
                     "values": [1.25, 1.5, 2, 3, 5]},
           "run": {"job": "constant", "kind": "Xiao", "exponents": XIAO_EXP,
                   "kernel": KERNEL},
           "output": str(out)}
    code = main(["--config", str(write_config(tmp_path, cfg))])
    assert code == 0
    lines = out.read_text().splitlines()[1:]
    values = [float(line.split(",")[4]) for line in lines]
    expected = [5.0, 3.0, 2.0, 1.5, 1.25]  # p/(p-1)
    assert all(math.isclose(v, e, rel_tol=1e-9) for v, e in zip(values, expected))


def test_sweep_epsilon_nondecreasing(tmp_path):
    out = tmp_path / "eps.csv"
    cfg = {"job": "sweep",
           "sweep": {"parameter": "epsilon", "values": [0.2, 0.1, 0.05]},
           "run": {"job": "verify", "theorem": "T32_lower", "epsilon": 0.2,
                   "exponents": XIAO_EXP, "kernel": KERNEL,
                   "weights": [{"degree": 0}]},
           "output": str(out)}
    code = main(["--config", str(write_config(tmp_path, cfg))])
    assert code == 0
    lines = out.read_text().splitlines()[1:]
    ratios = [float(line.split(",")[4]) for line in lines]
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))


def test_sweep_empty_range_exit_2(tmp_path):
    cfg = {"job": "sweep", "sweep": {"parameter": "x", "values": []},
           "run": {"job": "constant"}, "output": str(tmp_path / "x.csv")}
    assert main(["--config", str(write_config(tmp_path, cfg))]) == 2


def test_byte_reproducible_csv(tmp_path):
    cfg = {"job": "sweep",
           "sweep": {"parameter": "exponents.p_i.0", "values": [1.25, 2, 5]},
           "run": {"job": "constant", "kind": "Xiao", "exponents": XIAO_EXP,
                   "kernel": KERNEL}}
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--config", str(path), "--out", str(out1)]) == 0
    assert main(["--config", str(path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_operator_eval_job(tmp_path):
    out = tmp_path / "op.csv"
    cfg = {"job": "operator-eval", "kernel": KERNEL,
           "profiles": [{"kind": "power", "a": -0.5}],
           "controls": {"grid": {"start": 0, "stop": 2, "per_octave": 1}},
           "output": str(out)}
    assert main(["--config", str(write_config(tmp_path, cfg))]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "log2_r,r,value,abs_error,status"
    first = lines[1].split(",")
    # U |x|^{-1/2}(1) = 2
    assert math.isclose(float(first[2]), 2.0, rel_tol=1e-10)


def test_verify_family_with_seed(tmp_path):
    out = tmp_path / "fam.csv"
    cfg = {"job": "verify", "theorem": "T31_upper", "cases": 3,
           "exponents": XIAO_EXP, "kernel": KERNEL, "weights": [{"degree": 0}],
           "controls": {"seed": 9}, "output": str(out)}
    assert main(["--config", str(write_config(tmp_path, cfg))]) == 0
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 3
    assert all(line.split(",")[5] == "true" for line in lines)


def test_verify_herz_upper_job(tmp_path):
    out = tmp_path / "t32u.csv"
    cfg = {"job": "verify", "theorem": "T32_upper", "exponents": XIAO_EXP,
           "kernel": KERNEL, "weights": [{"degree": 0}],
           "profiles": [{"kind": "truncated", "a": -1.0, "c": 1, "R": 1}],
           "output": str(out)}
    assert main(["--config", str(write_config(tmp_path, cfg))]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "T32_upper" and row[5] == "true"
    assert float(row[4]) <= 1.0


def test_verify_commutator_job(tmp_path):
    out = tmp_path / "t41.csv"
    cfg = {"job": "verify", "theorem": "T41_bound",
           "exponents": {"m": 1, "n": 1, "d": 1, "alpha_i": [0], "p_i": [1],
                         "q_i": [2], "lambda_i": [0.5], "gamma_i": [0],
                         "r_i": [2], "beta_i": [0.5]},
           "kernel": KERNEL, "weights": [{"degree": 0}],
           "symbols": [{"beta": 0.5, "coefficient": 1}],
           "profiles": [{"kind": "power", "a": 0}],
           "output": str(out)}
    assert main(["--config", str(write_config(tmp_path, cfg))]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "T41_bound" and row[5] == "true"


def test_verify_uncertifiable_norm_is_failed_row(tmp_path):
    out = tmp_path / "inf.csv"
    cfg = {"job": "verify", "theorem": "T31_upper",
           "exponents": {"m": 1, "n": 1, "d": 1, "alpha_i": [0], "p_i": [1],
                         "q_i": [1], "lambda_i": [1], "gamma_i": [0]},
           "kernel": KERNEL, "weights": [{"degree": 0}],
           "profiles": [{"kind": "power", "a": -3.0}],  # infinite input norm
           "output": str(out)}
    assert main(["--config", str(write_config(tmp_path, cfg))]) == 1
    row = out.read_text().splitlines()[1].split(",")
    assert row[5] == "false"


def test_console_entry_point(tmp_path):
    out = tmp_path / "xiao.csv"
    cfg = {"job": "constant", "kind": "Xiao", "exponents": XIAO_EXP,
           "kernel": KERNEL, "output": str(out)}
    path = write_config(tmp_path, cfg)
    proc = subprocess.run([sys.executable, "-m", "hardy_cesaro.cli",
                           "--config", str(path)], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0
    assert out.exists()


def test_verify_family_without_admissible_case_exit_2(tmp_path):
    # the T31 family draws q_i <= 2.5, so for m = 3 the aggregate q is
    # always below 1 and no case is admissible: a config error, not a hang
    exps = {"m": 3, "n": 1, "d": 1, "alpha_i": [0, 0, 0], "p_i": [6, 6, 6],
            "q_i": [6, 6, 6], "lambda_i": [0, 0, 0], "gamma_i": [0, 0, 0]}
    cfg = {"job": "verify", "theorem": "T31_upper", "cases": 2, "exponents": exps,
           "kernel": KERNEL, "weights": [{"degree": 0}],
           "output": str(tmp_path / "fam.csv")}
    path = write_config(tmp_path, cfg)
    proc = subprocess.run([sys.executable, "-m", "hardy_cesaro.cli", "--config", str(path)],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 2
    assert "no admissible" in proc.stderr


MIN_POWER_A1 = {
    "job": "constant", "kind": "A1",
    "exponents": {"m": 1, "n": 2, "d": 1, "alpha_i": [0.1], "p_i": [2], "q_i": [2],
                  "lambda_i": [0.39], "gamma_i": [0]},
    "kernel": {"n": 2, "psi": {"kind": "product_power_beta",
                               "factors": [[0.15, 0.33], [-0.22, -0.17]]},
               "curves": [{"kind": "min_power", "beta": 1.24}]},
}


def test_constant_job_uses_configured_tol(tmp_path):
    out = tmp_path / "a1.csv"
    cfg = dict(MIN_POWER_A1, controls={"tol": 1e-4}, output=str(out))
    assert main(["--config", str(write_config(tmp_path, cfg))]) == 0
    fields = out.read_text().splitlines()[1].split(",")
    assert fields[3] == "converged"
    assert math.isclose(float(fields[2]), 1.5621908, rel_tol=1e-4)


def test_constant_job_kind_that_does_not_fit_exit_2(tmp_path, capsys):
    # kernel_constant's ValueErrors used to end the job with a traceback
    two_curves = dict(MIN_POWER_A1["kernel"],
                      curves=[{"kind": "min_power", "beta": 1.0}] * 2)
    cor = dict(MIN_POWER_A1, kind="CommutatorCor")
    for cfg, message in ((dict(MIN_POWER_A1, kernel=two_curves), "kernel has 2 curves"),
                         (cor, "CommutatorCor requires n = 1")):
        cfg = dict(cfg, output=str(tmp_path / "x.csv"))
        assert main(["--config", str(write_config(tmp_path, cfg))]) == 2
        err = capsys.readouterr().err
        assert "config error at 'config.kind'" in err and message in err


def test_constant_job_three_dimensional_min_power_converges(tmp_path):
    # n = 3 went through the tensor mesh, whose second level (216**3
    # points) exceeds the evaluation budget: always inconclusive
    out = tmp_path / "a1.csv"
    exponents = dict(MIN_POWER_A1["exponents"], n=3)
    kernel = {"n": 3, "psi": {"kind": "product_power_beta",
                              "factors": [[0.15, 0.33], [-0.22, -0.17], [0.3, 0.0]]},
              "curves": [{"kind": "min_power", "beta": 1.24}]}
    cfg = dict(MIN_POWER_A1, exponents=exponents, kernel=kernel, output=str(out))
    assert main(["--config", str(write_config(tmp_path, cfg))]) == 0
    fields = out.read_text().splitlines()[1].split(",")
    assert fields[3] == "converged"
    want = float(min_kernel_constant(kernel["psi"]["factors"], 1, [1.24], [-0.21]))
    assert abs(float(fields[2]) - want) <= float(fields[4])


def test_tol_outside_integrator_range_exit_2(tmp_path):
    for job in (MIN_POWER_A1,
                {"job": "operator-eval", "kernel": KERNEL,
                 "profiles": [{"kind": "power", "a": -0.5}]}):
        for tol in (0.1, 1e-15):
            cfg = dict(job, controls={"tol": tol}, output=str(tmp_path / "x.csv"))
            assert main(["--config", str(write_config(tmp_path, cfg))]) == 2


def _dense_sampled_profile(count=33):
    """Sampled input with a zero first node and ``count`` nodes half an
    octave apart, slope -0.3 (a power law beyond the last node)."""
    u = [-3.0 + 0.5 * i for i in range(count)]
    v = [0.0] + [2.0 ** (-0.3 * x) * (1.0 + 0.2 * math.sin(3.0 * x)) for x in u[1:-2]]
    v += [2.0 ** (-0.3 * x) for x in u[-2:]]
    return {"kind": "sampled", "grid": u, "values": v}


DENSE_KERNEL = {"n": 1, "psi": {"kind": "power_beta", "c": 0.3, "e": 0.2},
                "curves": [{"kind": "power", "b": 1}]}


def test_verify_t31_on_dense_sampled_input(tmp_path):
    # more than 24 input nodes below r used to exit 2: "curve vanished at
    # a quadrature node"
    out = tmp_path / "dense.csv"
    cfg = {"job": "verify", "theorem": "T31_upper",
           "exponents": {"m": 1, "n": 1, "d": 1, "alpha_i": [0.1], "p_i": [2],
                         "q_i": [2], "lambda_i": [0.8], "gamma_i": [0]},
           "kernel": DENSE_KERNEL, "weights": [{"degree": 0}],
           "profiles": [_dense_sampled_profile()], "output": str(out)}
    assert main(["--config", str(write_config(tmp_path, cfg))]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "T31_upper" and row[5] == "true"
    assert 0.0 < float(row[4]) <= 1.0


def test_operator_eval_on_dense_sampled_input(tmp_path):
    # the same input used to end operator-eval with a traceback (exit 1)
    out = tmp_path / "dense-op.csv"
    cfg = {"job": "operator-eval", "kernel": DENSE_KERNEL,
           "profiles": [_dense_sampled_profile()],
           "controls": {"grid": {"start": -8, "stop": 16, "per_octave": 4}},
           "output": str(out)}
    assert main(["--config", str(write_config(tmp_path, cfg))]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 24 * 4 + 1
    assert all(row[4] == "converged" for row in rows)
    assert any(float(row[2]) > 0.0 for row in rows)
