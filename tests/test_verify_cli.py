"""Verification suites and the command-line front end."""

import copy
import io
import json
import re
import sys
import threading

import jsonschema
import numpy as np
import pytest

from virann import _blas, cli, verify, virmod
from virann.errors import ModuleRangeError, TruncationError
from virann.virmod import ModuleParams, build_module, module_to_dict

LIGHT = "gram,bracket,qei,energy,mobius,bigon"


@pytest.fixture(scope="module")
def module_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli") / "m8.json"
    assert cli.main(["build", "--c", "2", "--h", "0.5", "--N", "8",
                     "--out", str(p)]) == 0
    return p


def element_file(tmp_path, doc, name="el.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def read_matrix(path):
    doc = json.loads(path.read_text())
    return np.array([[complex(re_, im) for re_, im in row]
                     for row in doc["U"]]), doc


# ---------------------------------------------------------------------------
# build


class TestBuild:
    def test_partition_count_dims(self, module_file):
        doc = json.loads(module_file.read_text())
        assert doc["dims"] == [1, 1, 2, 3, 5, 7, 11, 15, 22]
        assert doc["N"] == 8 and doc["c"] == 2.0 and doc["h"] == 0.5

    def test_null_quotient_report(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = cli.main(["build", "--c", "0.5", "--h", "0.5", "--N", "2",
                         "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["dims"] == [1, 1, 1]
        text = capsys.readouterr().out
        assert "nulls [0, 0, 1]" in text

    def test_level_zero_module(self, tmp_path):
        out = tmp_path / "m.json"
        assert cli.main(["build", "--N", "0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["dims"] == [1]

    def test_nonunitary_rejected(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = cli.main(["build", "--c", "0.3", "--h", "0.2", "--N", "4",
                         "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "positive semidefinite" in capsys.readouterr().err

    def test_malformed_env_value_exit_one(self, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.setenv("VIRANN_N", "abc")
        code = cli.main(["build", "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "error: VIRANN_N='abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "2", "-1", "0"])
    def test_nulltol_outside_zero_one_exit_one(self, tmp_path, capsys, tol):
        out = tmp_path / "m.json"
        code = cli.main(["build", "--N", "3", "--tol", tol, "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "error: nulltol" in capsys.readouterr().err

    def test_module_beyond_physical_memory_exit_two(self, tmp_path,
                                                    monkeypatch, capsys):
        # N=8 needs 8 * 67^2 * 8 bytes of dense L_n; claim 100 KB of memory
        monkeypatch.setattr(virmod, "_physical_memory", lambda: 100_000)
        out = tmp_path / "m.json"
        assert cli.main(["build", "--N", "8", "--out", str(out)]) == 2
        assert not out.exists()
        assert "physical memory" in capsys.readouterr().err

    def test_output_validates_against_schema(self, module_file):
        import jsonschema
        jsonschema.validate(json.loads(module_file.read_text()),
                            cli.load_schema("module"))


# ---------------------------------------------------------------------------
# represent


class TestRepresent:
    def test_standard_element_diagonal(self, module_file, tmp_path):
        el = element_file(tmp_path, {"kind": "standard", "q": [0.5, 0.0]})
        out = tmp_path / "r.json"
        assert cli.main(["represent", str(module_file), str(el),
                         "--out", str(out)]) == 0
        U, doc = read_matrix(out)
        k = np.repeat(np.arange(9), [1, 1, 2, 3, 5, 7, 11, 15, 22])
        assert np.abs(np.diag(U) - 0.5 ** (0.5 + k)).max() < 1e-9
        assert np.abs(U - np.diag(np.diag(U))).max() < 1e-9
        assert all(doc["bounds"][n]["ok"] for n in doc["bounds"])

    def test_identity_element(self, module_file, tmp_path):
        el = element_file(tmp_path, {"kind": "identity"})
        out = tmp_path / "r.json"
        assert cli.main(["represent", str(module_file), str(el),
                         "--out", str(out)]) == 0
        U, _ = read_matrix(out)
        assert np.array_equal(U, np.eye(len(U), dtype=complex))

    def test_scalar_multiplies_file(self, module_file, tmp_path):
        el = element_file(tmp_path, {"kind": "standard", "q": [0.5, 0.0],
                                     "z": [0.0, 2.0]})
        out = tmp_path / "r.json"
        assert cli.main(["represent", str(module_file), str(el),
                         "--out", str(out)]) == 0
        U, doc = read_matrix(out)
        assert doc["z"] == [0.0, 2.0]
        assert abs(U[0, 0] - 2j * 0.5**0.5) < 1e-9

    def test_path_element(self, module_file, tmp_path):
        lnr = float(np.log(0.5))
        el = element_file(tmp_path, {
            "kind": "path", "knots": [0.0, 1.0],
            "fields": [{"modes": [[0, lnr, 0.0]]},
                       {"modes": [[0, lnr, 0.0]]}]})
        out = tmp_path / "r.json"
        assert cli.main(["represent", str(module_file), str(el),
                         "--out", str(out)]) == 0
        U, _ = read_matrix(out)
        assert abs(U[0, 0] - 0.5**0.5) < 1e-9

    def test_noninward_element_exit_two(self, module_file, tmp_path, capsys):
        el = element_file(tmp_path, {
            "kind": "path", "knots": [0.0, 1.0],
            "fields": [{"modes": [[0, 0.05, 0.0]]},
                       {"modes": [[0, 0.05, 0.0]]}]})
        code = cli.main(["represent", str(module_file), str(el),
                         "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "margin" in err and "5.0" in err

    def test_malformed_element_schema_error(self, module_file, tmp_path,
                                            capsys):
        el = element_file(tmp_path, {"kind": "standard"})
        code = cli.main(["represent", str(module_file), str(el),
                         "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "schema error" in capsys.readouterr().err

    def test_ungraded_module_file_exit_one(self, module_file, tmp_path,
                                           capsys):
        doc = json.loads(module_file.read_text())
        doc["lmat"]["1"][0][2] = [0.25, 0.0]  # level 0 <- level 2 in L_1
        bad = element_file(tmp_path, doc, name="bad.json")
        el = element_file(tmp_path, {"kind": "identity"})
        code = cli.main(["represent", str(bad), str(el),
                         "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "outside the level blocks" in capsys.readouterr().err

    def test_module_file_with_another_adjoint_exit_one(
            self, module_file, tmp_path, capsys):
        doc = json.loads(module_file.read_text())
        doc["lmat"]["-1"] = [[[2 * re_, im] for re_, im in row]
                             for row in doc["lmat"]["-1"]]
        bad = element_file(tmp_path, doc, name="bad.json")
        el = element_file(tmp_path, {"kind": "identity"})
        out = tmp_path / "r.json"
        code = cli.main(["represent", str(bad), str(el), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: lmat -1 is not")
        assert not out.exists()

    def test_module_file_without_negative_modes(self, module_file, tmp_path):
        doc = json.loads(module_file.read_text())
        doc["lmat"] = {n: m for n, m in doc["lmat"].items() if int(n) >= 0}
        half = element_file(tmp_path, doc, name="half.json")
        el = element_file(tmp_path, {
            "kind": "path", "knots": [0.0, 1.0],
            "fields": [{"modes": [[0, -0.3, 0.0], [1, 0.02, 0.01]]},
                       {"modes": [[0, -0.2, 0.1], [-1, 0.0, 0.02]]}]})
        outs = [tmp_path / "full.json", tmp_path / "half.json.out"]
        for mfile, out in zip((module_file, half), outs):
            assert cli.main(["represent", str(mfile), str(el),
                             "--out", str(out)]) == 0
        assert read_matrix(outs[0])[0].tobytes() \
            == read_matrix(outs[1])[0].tobytes()

    def test_missing_file(self, module_file, tmp_path):
        code = cli.main(["represent", str(module_file),
                         str(tmp_path / "nope.json")])
        assert code == 1


# ---------------------------------------------------------------------------
# schema validation: the same outcome and message as jsonschema.validate


def _outcome(check):
    try:
        check()
    except jsonschema.ValidationError as e:
        return e.message, list(e.path)
    return None


def _module_corpus():
    good = module_to_dict(build_module(ModuleParams(2.0, 0.5, 3)))
    corpus = {"valid": good}

    def variant(name, edit):
        doc = copy.deepcopy(good)
        edit(doc)
        corpus[name] = doc

    for label, entry in [("true", True), ("str", "1"), ("null", None),
                         ("list", [1])]:
        variant(f"entry-{label}",
                lambda d, e=entry: d["lmat"]["1"][0].__setitem__(1, [e, 0.0]))
    variant("pair-of-1", lambda d: d["lmat"]["-1"][1].__setitem__(0, [0.0]))
    variant("pair-of-3",
            lambda d: d["lmat"]["2"][0].__setitem__(0, [0.0, 0.0, 0.0]))
    variant("row-not-list", lambda d: d["lmat"]["0"].__setitem__(2, 7))
    variant("matrix-not-list", lambda d: d["lmat"].__setitem__("3", {"0": []}))
    variant("key-x", lambda d: d["lmat"].__setitem__("x", d["lmat"]["1"]))
    variant("extra-key", lambda d: d.__setitem__("extra", 1))
    variant("missing-dims", lambda d: d.pop("dims"))
    variant("negative-c", lambda d: d.__setitem__("c", -1))
    variant("negative-c-and-bad-entry", lambda d: (
        d.__setitem__("c", -1), d["lmat"]["1"][0].__setitem__(0, [True, 0])))
    variant("float64-entries", lambda d: d["lmat"].__setitem__(
        "1", [[[np.float64(x) for x in z] for z in row]
              for row in d["lmat"]["1"]]))
    return corpus


_RUN_CONFIG = {"module": {"c": 2.0, "h": 0.5, "N": 4}, "tol": 1e-10,
               "seed": 1, "suites": ["gram", "mobius"], "format": "json",
               "out": ".", "verbosity": 1}

_CORPUS = [
    *[("module", k, d) for k, d in _module_corpus().items()],
    ("element", "identity", {"kind": "identity"}),
    ("element", "standard", {"kind": "standard", "q": [0.5, 0.0]}),
    ("element", "standard-z", {"kind": "standard", "q": [0.5, 0.0],
                               "z": [0.0, 2.0]}),
    ("element", "path", {"kind": "path", "knots": [0.0, 1.0],
                         "fields": [{"modes": [[0, -0.3, 0.0]]},
                                    {"modes": [[0, -0.3, 0.0]]}]}),
    ("element", "standard-without-q", {"kind": "standard"}),
    ("run_config", "full", _RUN_CONFIG),
    ("run_config", "module-only", {"module": {"c": 2, "h": 0.5, "N": 2},
                                   "suites": ["qei", "gram"]}),
    ("run_config", "unknown-suite", {**_RUN_CONFIG, "suites": ["nonsense"]}),
    ("run_config", "N-too-large", {**_RUN_CONFIG,
                                   "module": {"c": 2, "h": 0.5, "N": 25}}),
]


class TestValidate:
    @pytest.mark.parametrize("schema,name,doc", _CORPUS,
                             ids=[f"{s}-{n}" for s, n, _ in _CORPUS])
    def test_same_outcome_as_jsonschema(self, schema, name, doc):
        ours = _outcome(lambda: cli._validate(doc, schema))
        reference = _outcome(
            lambda: jsonschema.validate(doc, cli.load_schema(schema)))
        assert ours == reference
        assert (ours is None) == (name in {
            "valid", "float64-entries", "identity", "standard", "standard-z",
            "path", "full", "module-only"})

    def test_matrix_pass_declines_numpy_scalars(self):
        corpus = _module_corpus()
        assert cli._matrices_pass(corpus["valid"]["lmat"])
        assert not cli._matrices_pass(corpus["float64-entries"]["lmat"])


# ---------------------------------------------------------------------------
# the files and calls perfbench's cli-files workload reads


class TestOutputFiles:
    def test_files_are_the_text_of_json_dump(self, tmp_path):
        m = tmp_path / "m.json"
        assert cli.main(["build", "--N", "5", "--out", str(m)]) == 0
        buf = io.StringIO()
        json.dump(module_to_dict(build_module(ModuleParams(2.0, 0.5, 5))), buf)
        assert m.read_bytes() == (buf.getvalue() + "\n").encode()
        elements = [{"kind": "standard", "q": [0.5, 0.1]},
                    {"kind": "path", "knots": [0.0, 0.5, 1.0],
                     "fields": [{"modes": [[0, -0.3, 0.0], [1, 0.02, 0.01]]},
                                {"modes": [[0, -0.2, 0.1], [-1, 0.0, 0.02]]},
                                {"modes": [[0, -0.3, 0.0]]}]}]
        for i, el in enumerate(elements):
            out = tmp_path / f"r{i}.json"
            assert cli.main(["represent", str(m),
                             str(element_file(tmp_path, el, f"e{i}.json")),
                             "--out", str(out)]) == 0
            text = out.read_text()
            buf = io.StringIO()
            json.dump(json.loads(text), buf)
            assert text == buf.getvalue() + "\n"

    def test_validate_calls_and_validators_built(self, tmp_path, monkeypatch):
        m = tmp_path / "m.json"
        els = [element_file(tmp_path, {"kind": "standard", "q": [0.5, 0.0]},
                            "s.json"),
               element_file(tmp_path, {"kind": "identity"}, "i.json")]
        calls = []
        validate = cli._validate
        monkeypatch.setattr(cli, "_validate",
                            lambda doc, name: calls.append(name)
                            or validate(doc, name))
        cli._validator.cache_clear()
        for _ in range(2):
            assert cli.main(["build", "--N", "4", "--out", str(m)]) == 0
            for el in els:
                assert cli.main(["represent", str(m), str(el), "--out",
                                 str(tmp_path / "r.json")]) == 0
        assert calls == 2 * ["module", "module", "element",
                             "module", "element"]
        info = cli._validator.cache_info()
        assert (info.misses, info.hits) == (2, 8)


# ---------------------------------------------------------------------------
# non-finite numbers in input files


def _main_returns(argv, timeout=60.0):
    """cli.main(argv) on a daemon thread: its exit code, None if it hangs."""
    codes = []
    t = threading.Thread(target=lambda: codes.append(cli.main(argv)),
                         daemon=True)
    t.start()
    t.join(timeout)
    return codes[0] if codes else None


_NAN = float("nan")
_INF = float("inf")
_BAD_ELEMENTS = {
    "z-infinity": {"kind": "identity", "z": [_INF, 0.0]},
    "q-nan": {"kind": "standard", "q": [_NAN, 0.0]},
    "mode-nan": {"kind": "path", "knots": [0.0, 1.0],
                 "fields": [{"modes": [[0, -0.3, 0.0], [1, _NAN, 0.0]]},
                            {"modes": [[0, -0.3, 0.0]]}]},
    "knot-nan": {"kind": "path", "knots": [0.0, _NAN, 1.0],
                 "fields": [{"modes": [[0, -0.3, 0.0]]}] * 3},
}


class TestNonFinite:
    def test_nan_matrix_entry(self, module_file, tmp_path, capsys):
        doc = json.loads(module_file.read_text())
        doc["lmat"]["1"][0][1] = [_NAN, 0.0]  # inside L_1's level-1 block
        bad = element_file(tmp_path, doc, "bad.json")
        el = element_file(tmp_path, {"kind": "identity"})
        assert _main_returns(["represent", str(bad), str(el), "--out",
                              str(tmp_path / "r.json")]) == 1
        assert "non-finite" in capsys.readouterr().err

    def test_overflowing_central_charge(self, module_file, tmp_path, capsys):
        text = module_file.read_text()
        assert '"c": 2.0' in text  # 1e999 parses to inf with no such token
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace('"c": 2.0', '"c": 1e999', 1))
        el = element_file(tmp_path, {"kind": "identity"})
        assert _main_returns(["represent", str(bad), str(el), "--out",
                              str(tmp_path / "r.json")]) == 1
        assert "must be finite" in capsys.readouterr().err

    def test_integer_beyond_float_range(self, module_file, tmp_path, capsys):
        el = tmp_path / "el.json"
        el.write_text('{"kind": "standard", "q": [1%s, 0]}' % ("0" * 400))
        assert _main_returns(["represent", str(module_file), str(el),
                              "--out", str(tmp_path / "r.json")]) == 1
        assert "too large" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(_BAD_ELEMENTS))
    def test_element(self, module_file, tmp_path, capsys, name):
        el = element_file(tmp_path, _BAD_ELEMENTS[name])
        assert _main_returns(["represent", str(module_file), str(el),
                              "--out", str(tmp_path / "r.json")]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


# ---------------------------------------------------------------------------
# verify: library surface


class TestRunConfig:
    def test_canonical_suite_order(self):
        rep = verify.run_config({"module": {"c": 2, "h": 0.5, "N": 2},
                                 "suites": ["qei", "gram"]})
        assert rep["config"]["suites"] == ["gram", "qei"]

    def test_unknown_suite_rejected(self):
        from virann.errors import ArgumentError
        with pytest.raises(ArgumentError):
            verify.run_config({"module": {"c": 2, "h": 0.5, "N": 2},
                               "suites": ["nope"]})

    def test_rows_pass_iff_residual_below_bound(self):
        rep = verify.run_config({"module": {"c": 2, "h": 0.5, "N": 6},
                                 "suites": LIGHT.split(",")})
        assert rep["results"]
        for r in rep["results"]:
            assert r["pass"] == (r["residual"] <= r["bound"])
        assert rep["counts"]["pass"] + rep["counts"]["fail"] \
            == len(rep["results"])

    def test_single_worker_matches_pool(self):
        cfg = {"module": {"c": 2, "h": 0.5, "N": 6}, "suites": ["qei", "bigon"]}
        a = verify.run_config(cfg, workers=1)
        b = verify.run_config(cfg, workers=4)
        for ra, rb in zip(a["results"], b["results"]):
            assert ra["id"] == rb["id"] and ra["residual"] == rb["residual"]

    def test_seed_changes_random_rows(self):
        cfg = {"module": {"c": 2, "h": 0.5, "N": 6}, "suites": ["qei"]}
        a = verify.run_config(dict(cfg, seed=1))
        b = verify.run_config(dict(cfg, seed=2))
        ra = {r["id"]: r["residual"] for r in a["results"]}
        rb = {r["id"]: r["residual"] for r in b["results"]}
        assert ra["qei-numerical-range"] != rb["qei-numerical-range"]
        assert ra["qei-analytic-spot"] == rb["qei-analytic-spot"]

    @pytest.mark.parametrize("N, seed", [
        *(pytest.param(N, 1, id=str(N)) for N in range(8)),
        # segal-flowed's transported field outgrows L_7 or L_8 at these seeds
        pytest.param(7, 2, id="7-seed2"), pytest.param(8, 3, id="8-seed3"),
        pytest.param(8, 15, id="8-seed15")])
    def test_small_cutoffs_omit_rows_instead_of_raising(self, N, seed):
        rep = verify.run_config({"module": {"c": 2, "h": 0.5, "N": N},
                                 "seed": seed}, workers=1)
        assert rep["config"]["suites"] == list(verify.SUITES)
        assert rep["results"]

    def test_default_cutoff_keeps_segal_flowed(self):
        rep = verify.run_config({"module": {"c": 2, "h": 0.5, "N": 12},
                                 "seed": 1, "suites": ["segal"]}, workers=1)
        assert [r["id"] for r in rep["results"]] == [
            "segal-standard", "segal-flowed"]

    def test_segal_flowed_omitted_only_beyond_the_module(self, monkeypatch):
        real = verify.segal_residual

        def raising(err):
            def fake(R, f0, module, tol):
                if R.path.maxmode:  # the flowed element; standard is mode 0
                    raise err("raised by the test")
                return real(R, f0, module, tol=tol)
            return fake

        cfg = {"module": {"c": 2, "h": 0.5, "N": 8}, "suites": ["segal"]}
        monkeypatch.setattr(verify, "segal_residual",
                            raising(ModuleRangeError))
        rep = verify.run_config(cfg, workers=1)
        assert [r["id"] for r in rep["results"]] == ["segal-standard"]
        # a transport that outruns its own mode window is not omitted
        monkeypatch.setattr(verify, "segal_residual", raising(TruncationError))
        with pytest.raises(TruncationError, match="raised by the test"):
            verify.run_config(cfg, workers=1)

    def test_schema_suite_enum_is_the_registry(self):
        schema = cli.load_schema("run_config")
        assert schema["properties"]["suites"]["items"]["enum"] == list(
            verify.SUITES)

    def test_cocycle_below_the_wiggle_budget_omits_that_row(self):
        rep = verify.run_config({"module": {"c": 2, "h": 0.5, "N": 10},
                                 "suites": ["cocycle"]})
        assert [r["id"] for r in rep["results"]] == [
            "cocycle-constant-homotopy", "cocycle-reparametrization"]
        assert rep["passed"]

    def test_row_cpu_time_within_wall_time(self):
        rep = verify.run_config({"module": {"c": 2, "h": 0.5, "N": 6},
                                 "suites": ["qei", "energy", "bigon"]})
        for r in rep["results"]:
            assert 0.0 <= r["cpu_s"] <= r["seconds"] + 0.002, r

    def test_report_validates_with_and_without_new_fields(self):
        import jsonschema
        schema = cli.load_schema("report")
        rep = verify.run_config({"module": {"c": 2, "h": 0.5, "N": 4},
                                 "suites": ["gram", "mobius"]}, workers=2)
        env = rep["environment"]
        assert env["workers"] == 2
        assert env["numpy"] == np.__version__
        assert env["longdouble_eps"] == float(np.finfo(np.longdouble).eps)
        jsonschema.validate(rep, schema)
        del rep["environment"]
        for r in rep["results"]:
            del r["cpu_s"]
        jsonschema.validate(rep, schema)


# ---------------------------------------------------------------------------
# verify: one BLAS thread inside run_config


def _blas_counts():
    return {name: get() for name, (get, _) in _blas.libraries().items()}


@pytest.fixture()
def two_blas_threads():
    """Every loaded OpenBLAS at 2 threads; the previous counts after."""
    libs = _blas.libraries()
    if not libs:
        pytest.skip("no OpenBLAS library found in the process")
    before = _blas_counts()
    for _, put in libs.values():
        put(2)
    yield
    for name, (_, put) in libs.items():
        put(before[name])


class TestBlasPin:
    CFG = {"module": {"c": 2, "h": 0.5, "N": 2}, "suites": ["gram", "mobius"]}

    @pytest.mark.parametrize("workers", [1, 4])
    def test_suites_see_one_thread_and_counts_return(
            self, monkeypatch, two_blas_threads, workers):
        seen = []
        monkeypatch.setitem(verify.SUITES, "gram",
                            lambda *a: seen.append(_blas_counts()) or [])
        rep = verify.run_config(self.CFG, workers=workers)
        assert seen and all(set(c.values()) == {1} for c in seen)
        assert set(_blas_counts().values()) == {2}
        assert {(t["threads_before"], t["threads_pinned"])
                for t in rep["environment"]["blas_threads"]} == {(2, 1)}

    def test_counts_return_when_a_suite_raises(self, monkeypatch,
                                               two_blas_threads):
        def probe(*a):
            raise RuntimeError("probe")
        monkeypatch.setitem(verify.SUITES, "gram", probe)
        for workers in (1, 4):
            with pytest.raises(RuntimeError, match="probe"):
                verify.run_config(self.CFG, workers=workers)
            assert set(_blas_counts().values()) == {2}

    def test_overlapping_runs_restore_when_the_last_exits(self, monkeypatch,
                                                          two_blas_threads):
        both_inside = threading.Barrier(2, timeout=30)
        early_done = threading.Event()
        seen = {}
        # suites run on pool threads, so the probe tells the runs apart
        # by the tol each one passes
        tols = {"early": 1e-10, "late": 2e-10}

        def probe(module, tol, rng):
            both_inside.wait()
            name = next(n for n, t in tols.items() if t == tol)
            if name == "late":
                assert early_done.wait(timeout=30)
            seen[name] = _blas_counts()
            return []

        def run():
            name = threading.current_thread().name
            verify.run_config({**self.CFG, "suites": ["gram"],
                               "tol": tols[name]}, workers=1)
            if name == "early":
                early_done.set()

        monkeypatch.setitem(verify.SUITES, "gram", probe)
        threads = [threading.Thread(target=run, name=n)
                   for n in ("early", "late")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert set(seen) == {"early", "late"}
        assert set(seen["late"].values()) == {1}
        assert set(_blas_counts().values()) == {2}

    def test_many_overlapping_runs_see_one_thread(self, monkeypatch,
                                                  two_blas_threads):
        seen = []
        monkeypatch.setitem(verify.SUITES, "gram",
                            lambda *a: seen.append(_blas_counts()) or [])
        cfg = {**self.CFG, "suites": ["gram"]}
        threads = [threading.Thread(
            target=lambda: [verify.run_config(cfg, workers=1)
                            for _ in range(40)]) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 320
        assert all(set(c.values()) == {1} for c in seen)
        assert set(_blas_counts().values()) == {2}

    def test_residuals_do_not_depend_on_the_thread_count(self,
                                                         two_blas_threads):
        cfg = {"module": {"c": 2, "h": 0.5, "N": 10},
               "suites": ["bracket", "qei", "energy"]}
        a = verify.run_config(cfg)
        for _, put in _blas.libraries().values():
            put(1)
        b = verify.run_config(cfg)
        assert [(r["id"], r["residual"]) for r in a["results"]] \
            == [(r["id"], r["residual"]) for r in b["results"]]


# ---------------------------------------------------------------------------
# verify: command line


class TestVerifyCommand:
    def test_light_suites_pass(self, tmp_path):
        code = cli.main(["verify", "--N", "8", "--suite", LIGHT,
                         "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["passed"] and rep["counts"]["fail"] == 0
        import jsonschema
        jsonschema.validate(rep, cli.load_schema("report"))

    def test_loosened_tol_reports_failures(self, tmp_path, capsys):
        # scaling annuli are closed form at any tol; the adjoint suite
        # integrates full generators at the configured tol
        code = cli.main(["verify", "--N", "6", "--suite", "adjoint",
                         "--tol", "1e-3", "--out", str(tmp_path)])
        assert code == 1
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["counts"]["fail"] > 0
        failed = [r for r in rep["results"] if not r["pass"]]
        assert all(r["residual"] > r["bound"] for r in failed)
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_suite_schema_error(self, tmp_path, capsys):
        code = cli.main(["verify", "--suite", "nonsense",
                         "--out", str(tmp_path)])
        assert code == 1
        assert "schema error" in capsys.readouterr().err

    def test_csv_format_and_columns(self, tmp_path):
        code = cli.main(["verify", "--N", "4", "--suite", "gram,mobius",
                         "--format", "csv", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "id,anchor,residual,bound,pass,seconds"
        assert len(lines) > 1
        assert all(line.count(",") >= 5 for line in lines[1:])

    def test_reports_byte_identical_up_to_seconds(self, tmp_path):
        for d in ("a", "b"):
            assert cli.main(["verify", "--N", "6", "--suite", "gram,qei,bigon",
                             "--seed", "7", "--out", str(tmp_path / d)]) == 0
        strip = lambda s: re.sub(r'"(seconds|cpu_s)": [0-9.]+', '"t": 0', s)
        a = (tmp_path / "a" / "report.json").read_text()
        b = (tmp_path / "b" / "report.json").read_text()
        assert strip(a) == strip(b)

    def test_config_file_positional(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "module": {"c": 2.0, "h": 0.5, "N": 4},
            "suites": ["mobius"], "seed": 5}))
        code = cli.main(["verify", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["config"]["module"]["N"] == 4
        assert rep["config"]["seed"] == 5

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"module": {"c": 2.0, "h": 0.5, "N": 4},
                                   "suites": ["mobius"]}))
        code = cli.main(["verify", str(cfg), "--N", "2",
                         "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["config"]["module"]["N"] == 2

    def test_env_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VIRANN_SUITE", "mobius")
        monkeypatch.setenv("VIRANN_N", "4")
        code = cli.main(["verify", "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["config"]["suites"] == ["mobius"]
        assert rep["config"]["module"]["N"] == 4

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VIRANN_N", "4")
        code = cli.main(["verify", "--N", "2", "--suite", "mobius",
                         "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["config"]["module"]["N"] == 2

    @pytest.mark.parametrize("name, value",
                             [("WORKERS", "two"), ("VERBOSITY", "loud")])
    def test_malformed_env_value_exit_one(self, tmp_path, monkeypatch, capsys,
                                          name, value):
        monkeypatch.setenv("VIRANN_" + name, value)
        code = cli.main(["verify", "--N", "2", "--suite", "mobius",
                         "--out", str(tmp_path)])
        assert code == 1
        assert f"error: VIRANN_{name}='{value}'" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_config_module_not_an_object_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"module": 5}))
        code = cli.main(["verify", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert "error: config key 'module'" in capsys.readouterr().err

    def test_nonunitary_module_exit_two(self, tmp_path, capsys):
        code = cli.main(["verify", "--c", "0.3", "--h", "0.2", "--N", "4",
                         "--suite", "gram", "--out", str(tmp_path)])
        assert code == 2
        assert "precondition" in capsys.readouterr().err
