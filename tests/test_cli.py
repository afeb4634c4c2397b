import argparse
import json
import os
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import threesq
from threesq.cli import build_parser, dumps_canonical, main
from threesq.errors import BUDGETS, DomainError
from threesq.lattice import three_squares_representable


def run_cli(args, env=None):
    """Run the CLI in a fresh process that imports threesq from where this
    process found it; `env` entries override the environment."""
    src = os.path.dirname(os.path.dirname(threesq.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "threesq.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **(env or {})},
    )
    return proc.returncode, proc.stdout, proc.stderr


def load_schema() -> dict:
    """The frozen field order per subcommand, shipped with the package."""
    with resources.files("threesq").joinpath("schema.json").open() as fh:
        return json.load(fh)


# ------------------------------------------------------------- serialization

def test_canonical_json_floats():
    text = dumps_canonical({"x": 0.1, "k": 3, "s": "a", "b": True, "v": None})
    assert text == '{"x": 0.10000000000000001, "k": 3, "s": "a", "b": true, "v": null}'
    assert json.loads(text) == {"x": 0.1, "k": 3, "s": "a", "b": True, "v": None}


def subcommands() -> dict[str, argparse.ArgumentParser]:
    """The parser of each subcommand, by name."""
    return next(a for a in build_parser()._actions if a.dest == "command").choices


def test_schema_covers_all_commands():
    schema = load_schema()
    assert set(schema) == set(subcommands())


# ------------------------------------------------------------- round trips

def test_ripley_command_pinned(capsys):
    assert main(["ripley", "--n", "5", "--r", "0.7746"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k"] == 72
    assert out["baseline"] == pytest.approx(24 * 23 * 0.7746**2 / 4)
    assert list(out) == load_schema()["ripley"]["fields"]
    assert out["config"]["seed"] is None


def test_json_commands_match_schema(capsys, tmp_path):
    schema = load_schema()
    cases = {
        "energy": ["energy", "--n", "5", "--s", "1.0"],
        "spacing": ["spacing", "--n", "101"],
        "covering": ["covering", "--n", "101"],
        "variance": [
            "variance", "--n", "5", "--sigma", "0.3",
            "--samples", "500", "--seed", "7", "--m-max", "20",
        ],
        "boxes": ["boxes", "--n", "101", "--cells", "12"],
        "discrepancy": ["discrepancy", "--n", "101", "--m-max", "6"],
        "verify-arith": ["verify-arith", "--n-max", "20"],
        "twosq-probe": ["twosq-probe", "--m", "5", "--h", "1"],
        "baseline": ["baseline", "--stat", "covering", "--N", "50", "--seed", "2"],
    }
    for command, args in cases.items():
        assert main(args) == 0, command
        out = json.loads(capsys.readouterr().out)
        assert list(out) == schema[command]["fields"], command
        assert "seed" in out["config"]


SCALED_COMMANDS = [
    ["ripley", "--r", "0.05"],
    ["energy", "--s", "1"],
    ["energy", "--s", "0.5"],
    ["spacing"],
    ["covering"],
    ["variance", "--sigma", "0.01", "--samples", "2000", "--seed", "1", "--m-max", "16"],
    ["boxes", "--cells", "317"],
    ["weyl", "--degree", "6"],
    ["discrepancy", "--m-max", "20"],
    ["discrepancy", "--m-max", "20", "--centers", "200", "--seed", "3"],
]


def test_scaled_commands_cover_every_shell_statistic():
    from threesq import cli

    assert set(cli._FIELDS) <= {args[0] for args in SCALED_COMMANDS}


@pytest.mark.parametrize("args", SCALED_COMMANDS, ids=" ".join)
def test_shells_n_4n_16n_give_the_same_statistics(capsys, args):
    # every point of 4n is twice one of n, so the three shells project to
    # the same unit points, and their exact integers (squared distances
    # and n, inner products) scale by powers of 4 together: every field but
    # the echoed n is the same, byte for byte, whichever route takes them
    outs = []
    for n in (100_057, 4 * 100_057, 16 * 100_057):
        assert main([args[0], "--n", str(n), *args[1:]]) == 0
        out = capsys.readouterr().out
        assert out.count(f'"n": {n},') == (1 if args[0] == "weyl" else 2)
        outs.append(out.replace(f'"n": {n},', '"n": 100057,'))
    assert outs[0] == outs[1] == outs[2]


def test_csv_commands_parse(capsys):
    assert main(["pairs", "--n", "5"]) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0].startswith("# config: ")
    json.loads(lines[0].removeprefix("# config: "))
    assert lines[1] == "t,count"
    rows = dict(tuple(map(int, ln.split(","))) for ln in lines[2:])
    assert rows[4] == 72

    assert main(["twosq-gaps", "--y-list", "9,100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "Y,G,ratio"
    y, g, ratio = lines[2].split(",")
    assert (int(y), int(g)) == (9, 3)

    assert main(["weyl", "--n", "5", "--degree", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "j,value"
    assert len([ln for ln in lines[2:] if not ln.startswith("#")]) == 5


@pytest.mark.parametrize("n", [1, 5, 100_057])
def test_pairs_csv_matches_per_row_format(capsys, n):
    from threesq import lattice

    assert main(["pairs", "--n", str(n)]) == 0
    lines = capsys.readouterr().out.split("\n")
    tbl = lattice.pair_table(n)
    rows = [f"{t},{c}" for t, c in zip(tbl.t.tolist(), tbl.count.tolist())]
    assert lines[1:] == ["t,count", *rows, ""]


def scipy_loaded_after(code, *argv):
    """The scipy modules, as a printed list, that a fresh process running
    `code` with `argv` has loaded."""
    src = os.path.dirname(os.path.dirname(threesq.__file__))
    code += "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_leaves_kd_tree_module_unloaded():
    # scipy.spatial is imported inside the functions that use it, and the
    # L-value series needs no scipy.special, so importing the CLI loads no
    # scipy module at all
    assert scipy_loaded_after("import sys, threesq, threesq.cli") == "[]"


# one tiny run of every subcommand and of every baseline statistic; only the
# kd-tree and hull routes may load scipy
_NO_SCIPY_RUNS = [
    ["enumerate", "--n", "5"],
    ["pairs", "--n", "5"],
    ["energy", "--n", "5"],
    ["ripley", "--n", "5", "--r", "0.5"],
    ["variance", "--n", "5", "--sigma", "0.3", "--samples", "100", "--seed", "1", "--m-max", "6"],
    ["boxes", "--n", "5", "--cells", "10"],
    ["weyl", "--n", "5", "--degree", "2"],
    ["discrepancy", "--n", "5", "--m-max", "4", "--centers", "100", "--seed", "1"],
    ["verify-arith", "--n-max", "20"],
    ["twosq-gaps", "--y-list", "100"],
    ["twosq-probe", "--m", "5", "--h", "1"],
    ["baseline", "--stat", "ripley", "--N", "50", "--seed", "1", "--r", "0.1"],
    ["baseline", "--stat", "energy", "--N", "50", "--seed", "1"],
    ["baseline", "--stat", "variance", "--N", "50", "--seed", "1", "--sigma", "0.3", "--samples", "100"],
    ["baseline", "--stat", "boxes", "--N", "50", "--seed", "1", "--cells", "100"],
]
_SCIPY_RUNS = [
    ["spacing", "--n", "101"],
    ["covering", "--n", "101"],
    ["covering", "--n", "5", "--mesh-check", "0.1"],
    ["baseline", "--stat", "spacing", "--N", "50", "--seed", "1"],
    ["baseline", "--stat", "covering", "--N", "50", "--seed", "1"],
]


def test_scipy_runs_cover_every_command():
    runs = _NO_SCIPY_RUNS + _SCIPY_RUNS
    assert {args[0] for args in runs} == set(subcommands())
    baseline = subcommands()["baseline"]
    stat = next(a for a in baseline._actions if a.dest == "stat")
    assert {args[2] for args in runs if args[0] == "baseline"} == set(stat.choices)


@pytest.mark.parametrize(
    "args, loads_scipy",
    [pytest.param(args, False, id=" ".join(args[:3])) for args in _NO_SCIPY_RUNS]
    + [pytest.param(args, True, id=" ".join(args[:3])) for args in _SCIPY_RUNS],
)
def test_only_kd_tree_and_hull_runs_load_scipy(args, loads_scipy):
    loaded = scipy_loaded_after("import sys; from threesq.cli import main; assert main(sys.argv[1:]) == 0", *args)
    assert (loaded != "[]") == loads_scipy, loaded


def test_enumerate_text_format(capsys):
    assert main(["enumerate", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# n=5 N=24\n")
    assert len(out.strip().splitlines()) == 25


def test_enumerate_empty_warns_exit_zero():
    code, out, err = run_cli(["enumerate", "--n", "7"])
    assert code == 0
    assert out.startswith("# n=7 N=0")
    assert "not representable" in err


def test_domain_error_exit_two():
    code, out, err = run_cli(["ripley", "--n", "7", "--r", "0.5"])
    assert code == 2
    assert "4^a(8b+7)" in err
    code, _, err = run_cli(["variance", "--n", "5", "--sigma", "0.3", "--samples", "200"])
    assert code == 2  # randomized command without an explicit seed
    assert "seed" in err


def test_enumerate_refuses_shells_past_float_safe(capsys):
    import time

    start = time.perf_counter()
    assert main(["enumerate", "--n", str((1 << 50) + 1)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "2^50" in capsys.readouterr().err


def test_twosq_probe_refuses_radii_past_2_31(capsys):
    import time

    start = time.perf_counter()
    assert main(["twosq-probe", "--m", str((1 << 31) + 1), "--h", "14"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "2^31" in capsys.readouterr().err


def test_twosq_probe_refuses_over_candidate_budget(capsys):
    import time

    start = time.perf_counter()
    assert main(["twosq-probe", "--m", "100000", "--h", "199999"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "budget" in capsys.readouterr().err


def test_twosq_gaps_refuses_over_budget_before_sieving(capsys, monkeypatch):
    import time

    from threesq import twosquares

    def forbidden(*args):
        raise AssertionError("sieved before the budget check")

    monkeypatch.setattr(twosquares, "_sieve_segment", forbidden)
    start = time.perf_counter()
    assert main(["twosq-gaps", "--y-list", "10000000000000"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("ys", ["1000000000000,-1000000000000", "-1,5"])
def test_twosq_gaps_refuses_nonpositive_y_before_sieving(capsys, monkeypatch, ys):
    # the negative Y would offset the large one in the budget's sum
    from threesq import twosquares

    def forbidden(*args):
        raise AssertionError("sieved a list with a nonpositive Y")

    monkeypatch.setattr(twosquares, "_sieve_segment", forbidden)
    assert main(["twosq-gaps", f"--y-list={ys}"]) == 2
    assert "Y must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("ys", ["10,abc", ",", "", "1.5", "10,,20"])
def test_twosq_gaps_refuses_malformed_y_list(capsys, ys):
    assert main(["twosq-gaps", "--y-list", ys]) == 2
    err = capsys.readouterr().err
    assert "--y-list" in err and "internal error" not in err


def test_baseline_refuses_oversized_sample_before_drawing(capsys, monkeypatch):
    from threesq import spatial

    def forbidden(*args):
        raise AssertionError("points drawn before the size check")

    # the budget admits a same-size baseline for n = 1e10+19 (N = 955 416)
    limit = BUDGETS["sample_points"].limit
    assert 955_416 <= limit
    monkeypatch.setattr(spatial, "_random_units", forbidden)
    for N in (limit + 1, 10**12):
        with pytest.raises(DomainError, match="budget"):
            spatial.binomial_sample(N, 1)
        assert main(["baseline", "--stat", "spacing", "--N", str(N), "--seed", "1"]) == 2
        assert "budget" in capsys.readouterr().err
    with pytest.raises(AssertionError, match="before the size check"):
        spatial.binomial_sample(limit, 1)

def test_boxes_refuses_cells_past_cap_before_partitioning(capsys, monkeypatch):
    from threesq import spatial

    def forbidden(*args):
        raise AssertionError("partition built before the cell check")

    # the budget admits four cells per point of n = 1e10+19 (N = 955 416)
    limit = BUDGETS["partition_cells"].limit
    assert 4 * 955_416 <= limit
    monkeypatch.setattr(spatial, "CellPartition", forbidden)
    for cells in (limit + 1, 10**11):
        assert main(["boxes", "--n", "5", "--cells", str(cells)]) == 2
        assert "budget" in capsys.readouterr().err
        with pytest.raises(DomainError, match="budget"):
            spatial.box_moment(spatial.unit_shell(5), cells)
        with pytest.raises(DomainError, match="budget"):
            spatial.equal_area_cells(cells)


@pytest.mark.parametrize("cells", ["1", "0"])
def test_boxes_refuses_fewer_than_two_cells(capsys, cells):
    for argv in (["boxes", "--n", "5"], ["baseline", "--stat", "boxes", "--N", "50", "--seed", "0"]):
        assert main([*argv, "--cells", cells]) == 2
        captured = capsys.readouterr()
        assert "need at least two cells" in captured.err
        assert captured.out == ""


def test_monte_carlo_counts_refuse_over_budget_before_drawing(capsys, monkeypatch):
    from threesq import harmonics, spatial

    def forbidden(*args):
        raise AssertionError("centers drawn before the budget check")

    # the benchmark's variance jobs (10 000 centers, N <= 2112) and the
    # acceptance dual path (10^6 centers on 24 points) stay well inside
    limit = BUDGETS["center_products"].limit
    assert 10 * 10_000 * max(2112, spatial._VARIANCE_FLOOR) <= limit
    assert 10**6 * max(24, spatial._VARIANCE_FLOOR) <= limit
    monkeypatch.setattr(spatial, "_random_units", forbidden)
    monkeypatch.setattr(harmonics, "_random_units", forbidden)
    runs = [
        ["variance", "--n", "5", "--sigma", "0.1", "--samples", "1000000000000", "--seed", "1"],
        ["variance", "--n", "100057", "--sigma", "0.01", "--samples", "1000000", "--seed", "1"],
        ["discrepancy", "--n", "5", "--m-max", "5", "--centers", "100000000", "--seed", "1"],
        ["discrepancy", "--n", "5", "--m-max", "5", "--centers", "1000000", "--seed", "1"],
    ]
    for argv in runs:
        assert main(argv) == 2, argv
        assert "budget" in capsys.readouterr().err
    shell = spatial.unit_shell(5)
    with pytest.raises(DomainError, match="budget"):
        spatial.number_variance(shell, spatial.AnnulusSpec(0.0, 0.5), 10**12, 1)
    with pytest.raises(DomainError, match="budget"):
        harmonics.cap_discrepancy_estimate(shell, 10**8, 1)


def test_baseline_energy_refuses_over_pair_budget_before_any_product(capsys, monkeypatch):
    import time

    from threesq import spatial

    def forbidden(*args):
        raise AssertionError("Gram products before the budget check")

    monkeypatch.setattr(spatial, "_distance_blocks", forbidden)
    start = time.perf_counter()
    assert main(["baseline", "--stat", "energy", "--N", "1000000", "--seed", "1"]) == 2
    assert main(["baseline", "--stat", "ripley", "--N", "1000000", "--seed", "1", "--r", "2"]) == 2
    assert time.perf_counter() - start < 2.0
    assert "budget" in capsys.readouterr().err


def test_discrepancy_refuses_degrees_past_max(capsys):
    import time

    start = time.perf_counter()
    assert main(["discrepancy", "--n", "5", "--m-max", "2001"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "2000" in capsys.readouterr().err


def test_variance_refuses_shell_degrees_past_cap(capsys):
    import time

    from threesq import harmonics

    limit = harmonics.MAX_DEGREE
    start = time.perf_counter()
    assert main(["variance", "--n", "5", "--sigma", "0.1", "--m-max", str(limit + 1)]) == 2
    assert time.perf_counter() - start < 1.0
    assert str(limit) in capsys.readouterr().err


def test_verify_arith_refuses_over_budget_before_building(capsys, monkeypatch):
    import tracemalloc

    from threesq import arith, cli, lattice

    def forbidden(*args):
        raise AssertionError("built before the budget check")

    monkeypatch.setattr(lattice, "pair_table", forbidden)
    monkeypatch.setattr(arith, "pair_count_formula_table", forbidden)
    limit = BUDGETS["verify_arith"].limit
    edge = max(x for x in range(1, 5000) if cli._verify_arith_work(x) <= limit)
    assert cli._verify_arith_work(edge + 1) > limit
    tracemalloc.start()
    try:
        for n_max in (edge + 1, 10**6, 10**40):
            assert main(["verify-arith", "--n-max", str(n_max)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "budget" in capsys.readouterr().err


def test_bad_usage_exit_two():
    code, _, _ = run_cli(["ripley", "--n", "5"])  # missing --r
    assert code == 2


@st.composite
def rerun_args(draw):
    """A random seeded run: Monte Carlo and series variance on a shell, a
    baseline statistic, or a sampled discrepancy estimate."""
    seed = str(draw(st.integers(0, 2**32 - 1)))
    n = str(draw(st.integers(1, 3000).filter(three_squares_representable)))
    sigma = repr(draw(st.floats(1e-3, 0.5)))
    samples = str(draw(st.integers(100, 500)))
    kind = draw(st.sampled_from(["variance", "baseline", "discrepancy"]))
    if kind == "variance":
        m_max = str(draw(st.integers(1, 40)))
        return ["variance", "--n", n, "--sigma", sigma, "--samples", samples, "--seed", seed, "--m-max", m_max]
    if kind == "baseline":
        big_n = str(draw(st.integers(50, 500)))
        own = draw(st.sampled_from([
            ["ripley", "--r", repr(draw(st.floats(1e-3, 2.0)))],
            ["energy"],
            ["spacing"],
            ["covering"],
            ["variance", "--sigma", sigma, "--samples", samples],
            # one cell is refused (test_boxes_refuses_fewer_than_two_cells)
            ["boxes", "--cells", str(draw(st.integers(2, 200)))],
        ]))
        return ["baseline", "--stat", own[0], "--N", big_n, "--seed", seed, *own[1:]]
    m_max = str(draw(st.integers(1, 30)))
    return ["discrepancy", "--n", n, "--m-max", m_max, "--centers", samples, "--seed", seed]


# every example is two fresh processes, so the examples are few
@settings(max_examples=10, deadline=None)
@given(rerun_args())
# the whole-shell series of n = 100057 has a pair table long enough for
# OpenBLAS to thread a dot product; its digits must not follow the thread
# count
@example(["variance", "--n", "100057", "--sigma", "0.01", "--m-max", "16"])
def test_byte_identical_reruns(args):
    code1, out1, err1 = run_cli(args, {"OPENBLAS_NUM_THREADS": "1"})
    code2, out2, _ = run_cli(args, {"OPENBLAS_NUM_THREADS": "2"})
    assert code1 == code2 == 0, err1
    assert out1 and out1 == out2


def test_cached_parser_matches_fresh_parser(capsys, monkeypatch):
    from threesq import cli

    argsets = [
        ["ripley", "--n", "5", "--r", "0.7746"],
        ["pairs", "--n", "6"],
        ["ripley", "--n", "5"],  # missing --r: fails to parse
        ["variance", "--n", "5", "--sigma", "0.3", "--samples", "400", "--seed", "11", "--m-max", "30"],
        ["ripley", "--n", "6", "--r", "0.5", "--geodesic"],
        ["twosq-probe", "--m", "50", "--h", "4"],
        ["pairs", "--n", "6"],
    ]

    def run_all():
        results = []
        for args in argsets:
            code = main(args)
            out = capsys.readouterr()
            results.append((code, out.out, out.err))
        return results

    cached = run_all()
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _, _ in cached] == [0, 0, 2, 0, 0, 0, 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert run_all() == cached


def test_output_file(tmp_path):
    target = tmp_path / "out.json"
    assert main(["energy", "--n", "5", "--out", str(target)]) == 0
    data = json.loads(target.read_text())
    assert data["N"] == 24


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--n", "5", "--out"],
        ["variance", "--n", "5", "--sigma", "0.1", "--m-max", "3", "--zonal-out"],
    ],
    ids=["out", "zonal-out"],
)
def test_unwritable_output_path_is_a_domain_error(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    assert main([*argv, str(target)]) == 2
    assert f"error: cannot write {target}: " in capsys.readouterr().err
    assert not target.exists()


def test_variance_zonal_table(tmp_path, capsys):
    import math

    zpath = tmp_path / "zonal.csv"
    assert main([
        "variance", "--n", "5", "--sigma", "0.25", "--m-max", "10",
        "--zonal-out", str(zpath),
    ]) == 0
    capsys.readouterr()
    lines = zpath.read_text().splitlines()
    assert lines[0] == "m,h"
    assert len(lines) == 12
    rows = [ln.split(",") for ln in lines[1:]]
    assert [int(m) for m, _ in rows] == list(range(11))
    h = [float(v) for _, v in rows]
    assert h[0] == pytest.approx(4 * math.pi * 0.25)


def test_geodesic_conversion(capsys):
    import math

    assert main(["ripley", "--n", "5", "--r", str(math.pi / 3), "--geodesic"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["r"] == pytest.approx(2 * math.sin(math.pi / 6))


@pytest.mark.parametrize(
    "argv",
    [
        ["ripley", "--n", "5", "--r", "4", "--geodesic"],
        ["ripley", "--n", "5", "--r", "-0.5", "--geodesic"],
        ["variance", "--n", "5", "--rho2", "4", "--geodesic", "--m-max", "3"],
        ["baseline", "--stat", "ripley", "--N", "10", "--seed", "1", "--r", "3.5", "--geodesic"],
    ],
)
def test_geodesic_radius_past_pi_is_refused(argv, capsys):
    # past pi the chord 2 sin(r/2) would fold back to that of 2 pi - r
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "geodesic radius must lie in [0, pi]" in captured.err
    assert captured.out == ""


def test_geodesic_radius_pi_is_the_whole_sphere(capsys):
    import math

    assert main(["ripley", "--n", "5", "--r", str(math.pi), "--geodesic"]) == 0
    assert json.loads(capsys.readouterr().out)["r"] == 2.0


@pytest.mark.parametrize(
    "argv",
    [
        ["variance", "--n", "5", "--sigma", "0.1", "--samples", "100", "--seed", "-1"],
        ["baseline", "--stat", "energy", "--N", "10", "--seed", "-1"],
        ["baseline", "--stat", "variance", "--N", "10", "--seed", "-1", "--sigma", "0.1", "--samples", "100"],
        ["discrepancy", "--n", "5", "--m-max", "3", "--centers", "100", "--seed", "-1"],
    ],
    ids=["variance", "baseline", "baseline-variance", "discrepancy"],
)
def test_negative_seed_is_a_domain_error(argv, capsys):
    assert main(argv) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["variance", "--n", "5", "--sigma", "0.1", "--samples", "200", "--seed", "1", "--zonal-out"], "--m-max"),
        (["variance", "--n", "5", "--sigma", "0.1", "--rho1", "0.2", "--rho2", "0.5", "--m-max", "3"], "not both"),
        (["variance", "--n", "5", "--sigma", "0.1", "--rho2", "0.5", "--m-max", "3"], "not both"),
        (["baseline", "--stat", "variance", "--N", "10", "--seed", "1", "--sigma", "0.1", "--rho1", "0.2",
          "--samples", "100"], "not both"),
        (["variance", "--n", "5", "--sigma", "0.1", "--geodesic", "--m-max", "3"], "--geodesic"),
        (["baseline", "--stat", "variance", "--N", "10", "--seed", "1", "--sigma", "0.1", "--geodesic",
          "--samples", "100"], "--geodesic"),
        (["variance", "--n", "5", "--sigma", "0.1", "--seed", "1", "--m-max", "3"], "--samples"),
        (["discrepancy", "--n", "5", "--m-max", "3", "--seed", "1"], "--centers"),
        (["discrepancy", "--n", "5", "--m-max", "3", "--centers", "100"], "--seed"),
    ],
    ids=["zonal-out-without-series", "sigma-and-radii", "sigma-and-rho2", "baseline-sigma-and-rho1",
         "sigma-and-geodesic", "baseline-sigma-and-geodesic", "seed-without-samples", "seed-without-centers",
         "centers-without-seed"],
)
def test_variance_refuses_options_it_cannot_use(argv, needle, capsys, tmp_path):
    # the table needs the series, a cap of area sigma would drop the radii
    # and their conversion, and a seed with no draw would seed nothing
    zpath = tmp_path / "z.csv"
    if argv[-1] == "--zonal-out":
        argv = [*argv, str(zpath)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert needle in captured.err
    assert captured.out == ""
    assert not zpath.exists()


def test_covering_mesh_check_flag(capsys):
    assert main(["covering", "--n", "5", "--mesh-check", "0.01"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mesh_estimate"] is not None
    assert 0 <= out["value"] - out["mesh_estimate"] <= 0.01
    # a resolution the interval cannot certify is refused, exit code 2
    assert main(["covering", "--n", "5", "--mesh-check", "1e-10"]) == 2


def test_covering_mesh_check_zero_is_refused(capsys):
    # 0 is a given resolution, not an absent flag
    assert main(["covering", "--n", "5", "--mesh-check", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "resolution" in captured.err


def test_baseline_stats_all_run(capsys):
    import math

    cases = [
        ["baseline", "--stat", "ripley", "--N", "400", "--seed", "1", "--r", "0.2"],
        ["baseline", "--stat", "energy", "--N", "400", "--seed", "1"],
        ["baseline", "--stat", "variance", "--N", "400", "--seed", "1",
         "--sigma", "0.05", "--samples", "2000"],
        ["baseline", "--stat", "boxes", "--N", "400", "--seed", "1", "--cells", "20"],
    ]
    for args in cases:
        assert main(args) == 0, args
        out = json.loads(capsys.readouterr().out)
        assert out["stat"] == args[2]
        assert out["result"]
    # spot value: binomial ripley ratio should sit near 1
    assert main(["baseline", "--stat", "ripley", "--N", "2000", "--seed", "4", "--r", "0.3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert math.isclose(out["result"]["ratio"], 1.0, rel_tol=0.1)


def test_baseline_zero_ripley_baseline(capsys):
    # one point has no pairs: baseline 0, reported ratio 0
    assert main(["baseline", "--stat", "ripley", "--N", "1", "--seed", "1", "--r", "0.1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["baseline"] == 0.0
    assert out["result"]["ratio"] == 0.0
    assert "m_max" not in out["config"]


@pytest.mark.parametrize(
    "stat_args, needle",
    [
        (["energy", "--sigma", "0.3"], "unrecognized arguments: --sigma 0.3"),
        (["spacing", "--r", "0.2", "--geodesic"], "unrecognized arguments: --r 0.2 --geodesic"),
        (["ripley", "--r", "0.2", "--s", "2"], "unrecognized arguments: --s 2"),
        (["boxes", "--cells", "7", "--samples", "100"], "unrecognized arguments: --samples 100"),
        (["covering", "--cells", "7"], "unrecognized arguments: --cells 7"),
        (["variance", "--sigma", "0.1", "--samples", "100", "--cells", "7"], "unrecognized arguments: --cells 7"),
        (["ripley"], "required: --r"),
        (["boxes"], "required: --cells"),
    ],
    ids=["energy-sigma", "spacing-r-geodesic", "ripley-s", "boxes-samples", "covering-cells", "variance-cells",
         "ripley-without-r", "boxes-without-cells"],
)
def test_baseline_takes_exactly_its_statistics_options(stat_args, needle, capsys):
    # a statistic takes the same options under baseline as on its shell
    # command: another statistic's option is refused, not dropped
    argv = ["baseline", "--stat", stat_args[0], "--N", "20", "--seed", "1", *stat_args[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert needle in captured.err
    assert captured.out == ""


def test_baseline_has_no_m_max_flag():
    code, _, err = run_cli(["baseline", "--stat", "energy", "--N", "10", "--seed", "1", "--m-max", "4"])
    assert code == 2
    assert "--m-max" in err


def test_threads_flag_is_gone(capsys):
    code, _, err = run_cli(["energy", "--n", "5", "--threads", "2"])
    assert code == 2
    assert "--threads" in err
    assert main(["energy", "--n", "5"]) == 0
    assert "threads" not in json.loads(capsys.readouterr().out)["config"]


def test_twosq_probe_has_no_delta_flag(capsys):
    code, _, err = run_cli(["twosq-probe", "--m", "5", "--h", "1", "--delta", "0.1"])
    assert code == 2
    assert "--delta" in err
    assert main(["twosq-probe", "--m", "5", "--h", "1"]) == 0
    assert "delta" not in json.loads(capsys.readouterr().out)["config"]


def test_config_echoes_parser_options(capsys):
    # the config holds the command, every option but --out in the order
    # the parser declares it, and the seed last
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    cases = {
        "pairs": ["--n", "5"],
        "energy": ["--n", "5"],
        "ripley": ["--n", "5", "--r", "0.5"],
        "spacing": ["--n", "5"],
        "covering": ["--n", "5"],
        "variance": ["--n", "5", "--sigma", "0.3", "--m-max", "4"],
        "boxes": ["--n", "5", "--cells", "4"],
        "weyl": ["--n", "5", "--degree", "2"],
        "discrepancy": ["--n", "5", "--m-max", "2"],
        "verify-arith": ["--n-max", "5"],
        "twosq-gaps": ["--y-list", "9"],
        "twosq-probe": ["--m", "5", "--h", "1"],
    }
    # each statistic's own options in declaration order, and a run of it
    stats = {
        "energy": ([], ["s"]),
        "ripley": (["--r", "0.5"], ["r", "geodesic"]),
        "spacing": ([], []),
        "covering": ([], []),
        "variance": (["--sigma", "0.3", "--samples", "100"], ["rho1", "rho2", "sigma", "samples", "geodesic"]),
        "boxes": (["--cells", "4"], ["cells"]),
    }
    assert set(cases) | {"enumerate", "baseline"} == set(subparsers.choices)

    def config_of(argv):
        assert main(argv) == 0, argv
        text = capsys.readouterr().out
        if text.startswith("# config: "):
            return json.loads(text.splitlines()[0].removeprefix("# config: "))
        return json.loads(text)["config"]

    for command, args in cases.items():
        config = config_of([command, *args])
        options = [
            a.dest for a in subparsers.choices[command]._actions
            if a.dest not in ("help", "out", "seed")
        ]
        assert list(config) == ["command", *options, "seed"], command
        assert config["command"] == command
        if command in stats:  # the shell command takes the statistic's options after n
            own = stats[command][1]
            assert list(config)[2 : 2 + len(own)] == own, command
    for stat, (args, own) in stats.items():
        config = config_of(["baseline", "--stat", stat, "--N", "20", "--seed", "1", *args])
        assert list(config) == ["command", "stat", "N", *own, "seed"], stat
        assert config["command"] == "baseline" and config["stat"] == stat


@pytest.mark.parametrize("n_max", ["0", "-5"])
def test_verify_arith_refuses_n_max_below_one(n_max, capsys):
    # a run over no shell would report zero mismatches having checked nothing
    assert main(["verify-arith", "--n-max", n_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--n-max must be at least 1, not {n_max}" in captured.err


def test_verify_arith_clean(capsys):
    assert main(["verify-arith", "--n-max", "60"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mismatches"] == 0
    assert out["bound_violations"] == 0
    assert out["shells_checked"] > 20
