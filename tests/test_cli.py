"""Command-line interface: solve, verify, determinism."""

import hashlib
import json
import random

import pytest

from arcticauction import driver
from arcticauction.cli import main
from arcticauction.core import format_rational
from arcticauction.randgen import random_instance

from conftest import wide_instance


def instance_doc(inst):
    """The instance document of a market, every number written exactly."""
    return {
        "buyers": [
            {"id": b, "budget": format_rational(inst.budgets[b])} for b in inst.buyers
        ],
        "goods": list(inst.goods),
        "utilities": [
            [b, g, format_rational(inst.utilities[(b, g)])] for b, g in inst.edges()
        ],
    }


# one buyer valuing one good
ONE_EDGE = {
    "buyers": [{"id": "b1", "budget": 3}],
    "goods": ["g1"],
    "utilities": [["b1", "g1", "2"]],
}


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(ONE_EDGE))
    return path


@pytest.fixture
def pair_instance_file(tmp_path):
    doc = {
        "buyers": [{"id": "b1", "budget": 1}],
        "goods": ["g1"],
        "utilities": [["b1", "g1", 2]],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    return path


class TestSolve:
    def test_both_sections_identical(self, instance_file, tmp_path):
        out = tmp_path / "out.json"
        code = main(
            [
                "solve",
                "--input",
                str(instance_file),
                "--algorithm",
                "both",
                "--output",
                str(out),
                "--seed",
                "3",
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc["results"]) == {"weak", "strong"}
        assert (
            doc["results"]["weak"]["equilibrium"]
            == doc["results"]["strong"]["equilibrium"]
        )
        assert doc["results"]["weak"]["certificate"]["pass"]

    def test_integer_ids_are_read_as_strings(self, tmp_path):
        # JSON integers as buyer and good ids name the same market as the
        # strings of their digits
        path = tmp_path / "ints.json"
        path.write_text(
            json.dumps(
                {
                    "buyers": [{"id": 1, "budget": 3}],
                    "goods": [2],
                    "utilities": [[1, 2, "2"]],
                }
            )
        )
        out = tmp_path / "out.json"
        assert main(["solve", "--input", str(path), "--output", str(out)]) == 0
        for section in json.loads(out.read_text())["results"].values():
            eq = section["equilibrium"]
            assert list(eq["prices"]) == ["2"]
            assert list(eq["refunds"]) == ["1"]
            assert [row[:2] for row in eq["spending"]] == [["1", "2"]]
            assert section["certificate"]["pass"]

    def test_weak_budget_balanced_prices_exact(self, pair_instance_file, tmp_path):
        # budget-balanced component: the price equals the budget exactly,
        # untouched by the perturbation
        out = tmp_path / "out.json"
        code = main(
            [
                "solve",
                "--input",
                str(pair_instance_file),
                "--algorithm",
                "weak",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["weak"]["equilibrium"]["prices"] == {"g1": "1"}

    def test_missing_input_exits_one(self, tmp_path, capsys):
        code = main(["solve", "--input", str(tmp_path / "missing.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_explicit_sigma_zero_allows_unperturbed(self, instance_file, tmp_path):
        out = tmp_path / "out.json"
        code = main(
            [
                "solve",
                "--input",
                str(instance_file),
                "--algorithm",
                "strong",
                "--perturb",
                "0",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        eq = doc["results"]["strong"]["equilibrium"]
        assert eq["prices"] == {"g1": "2"}
        assert eq["refunds"] == {"b1": "1"}


class TestVerify:
    def test_roundtrip_passes(self, instance_file, tmp_path):
        out = tmp_path / "out.json"
        main(
            [
                "solve",
                "--input",
                str(instance_file),
                "--algorithm",
                "both",
                "--output",
                str(out),
                "--seed",
                "7",
            ]
        )
        assert main(
            ["verify", "--input", str(instance_file), "--solution", str(out)]
        ) == 0

    def test_corrupted_solution_fails(self, instance_file, tmp_path):
        out = tmp_path / "out.json"
        main(
            [
                "solve",
                "--input",
                str(instance_file),
                "--algorithm",
                "weak",
                "--output",
                str(out),
                "--seed",
                "7",
            ]
        )
        doc = json.loads(out.read_text())
        doc["results"]["weak"]["equilibrium"]["refunds"]["b1"] = "0"
        out.write_text(json.dumps(doc))
        assert main(
            ["verify", "--input", str(instance_file), "--solution", str(out)]
        ) == 1

    def test_parse_error_exits_one(self, instance_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(
            ["verify", "--input", str(instance_file), "--solution", str(bad)]
        ) == 1


class TestDeterminism:
    def test_byte_identical_output_and_trace(self, instance_file, tmp_path):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"out_{tag}.json"
            trace = tmp_path / f"trace_{tag}.jsonl"
            code = main(
                [
                    "solve",
                    "--input",
                    str(instance_file),
                    "--algorithm",
                    "both",
                    "--output",
                    str(out),
                    "--trace",
                    str(trace),
                    "--seed",
                    "11",
                ]
            )
            assert code == 0
            paths.append((out.read_bytes(), trace.read_bytes()))
        assert paths[0] == paths[1]

    # SHA-256 of the result document and of the trace.  wide_instance(14)
    # makes a compressed restart and restart_repair steps; wide_instance(33)
    # runs 16 price-raising iterations over two delayed restarts; the n = 8
    # market under the halving solver runs hundreds of phases whose numbers
    # grow to hundreds of bits; the n = 40 market is a strong_random draw
    # whose price raises stop on new equality edges as well as on
    # backorders.  A change that moves these digests changes the solver's
    # output, not only its speed.
    @pytest.mark.parametrize(
        "market, algorithm, digests",
        [
            (
                lambda: wide_instance(14),
                "strong",
                (
                    "e2c5928e37705ccb9e02c47d090aa3ca37bfe7aa43d988bbddaf5b5125fb563d",
                    "0da56f980270be9c65bdb2a661a294327bc86d2776c1321d0bf7e216b3b64bb2",
                ),
            ),
            (
                lambda: wide_instance(33),
                "strong",
                (
                    "f309b7af900c4c4560eaeaba7e7b12b39bb428d5c88e0a6f64cb1b2404bbd9e4",
                    "5bce4e05f4ca9aabe2d2eb9b3ff637251281e587a68134192a64aa636d4d2eea",
                ),
            ),
            (
                lambda: random_instance(6, random.Random(0)),
                "both",
                (
                    "2a483d59dfece955cbc972ebb900f2b17823e3e8a68adc688f3a351cb74d8d19",
                    "8c50d737081cffc202cb1782b43ff52e58f92e9fec0bf187a1d4132d3a5b18ce",
                ),
            ),
            (
                lambda: random_instance(8, random.Random(1)),
                "weak",
                (
                    "403ab37bf90eaa85c055e7f33267272d6fe6b91e15faae96d93f61b2bb6e3275",
                    "74e45883c744aeef4bfa732a5aaee66f7a9e85da635cd6b5996209b522aa0171",
                ),
            ),
            (
                lambda: random_instance(40, random.Random(1)),
                "strong",
                (
                    "d29ffb42cffd0a720e03d806f899aa2d3010b7c2a97f15a442416e97d4181b3d",
                    "39cd2fb9728c24626be39fb80477e655bb3e56ae83fe59f5f59a383d62149c13",
                ),
            ),
        ],
        ids=[
            "wide14_strong",
            "wide33_strong",
            "random6_both",
            "random8_weak",
            "random40_strong",
        ],
    )
    def test_output_and_trace_bytes_are_pinned(self, market, algorithm, digests, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance_doc(market())))
        out, trace = tmp_path / "out.json", tmp_path / "trace.jsonl"
        argv = ["solve", "--input", str(path), "--algorithm", algorithm, "--seed", "0"]
        assert main(argv + ["--output", str(out), "--trace", str(trace)]) == 0
        got = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, trace))
        assert got == digests


def test_degenerate_unperturbed_exits_two(tmp_path, capsys, monkeypatch):
    # two identical buyers on one good: with the perturbation disabled every
    # seed gives the same degenerate instance, so the solver gives up after
    # one run however many retries are allowed
    calls = []
    run_weak = driver.run_weak

    def counted(inst):
        calls.append(inst)
        return run_weak(inst)

    monkeypatch.setattr(driver, "run_weak", counted)
    doc = {
        "buyers": [{"id": "b1", "budget": 3}, {"id": "b2", "budget": 3}],
        "goods": ["g1"],
        "utilities": [["b1", "g1", 2], ["b2", "g1", 2]],
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    code = main(
        [
            "solve",
            "--input",
            str(path),
            "--algorithm",
            "weak",
            "--perturb",
            "0",
            "--max-retries",
            "8",
        ]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err
    assert len(calls) == 1


def edited_solution(edit, seed=7):
    """A ``verify`` command line for a weak solution document, solved at
    ``seed``, changed by ``edit``."""

    def argv(instance_file, tmp_path):
        out = tmp_path / "out.json"
        solve = ["solve", "--input", str(instance_file), "--algorithm", "weak"]
        assert main(solve + ["--output", str(out), "--seed", str(seed)]) == 0
        doc = json.loads(out.read_text())
        edit(doc)
        out.write_text(json.dumps(doc))
        return ["verify", "--input", str(instance_file), "--solution", str(out)]

    return argv


def seed_written_as(value):
    """A ``verify`` command line for a weak solution document solved at seed
    1, its seed then written as ``value``, which ``int()`` reads as 1."""

    def edit(doc):
        assert doc["perturbation"]["seed"] == 1
        doc["perturbation"]["seed"] = value

    return edited_solution(edit, seed=1)


def unwritable(option):
    """A ``solve`` command line whose ``option`` (``--output`` or
    ``--trace``) names a file in a directory that does not exist."""
    return lambda instance_file, tmp_path: [
        "solve",
        "--input",
        str(instance_file),
        option,
        str(tmp_path / "missing" / "out.json"),
    ]


def instance_text(text):
    """A ``solve`` command line for an input document of JSON text ``text``."""

    def argv(_, tmp_path):
        path = tmp_path / "input.json"
        path.write_text(text)
        return ["solve", "--input", str(path)]

    return argv


def edited_instance(**fields):
    """A ``solve`` command line for the one-edge instance with ``fields``
    replaced."""
    return instance_text(json.dumps({**ONE_EDGE, **fields}))


def buyer_id(value):
    """A ``solve`` command line for the one-edge instance whose buyer id is
    ``value``, in its buyer row and its utility row."""
    return edited_instance(
        buyers=[{"id": value, "budget": 3}], utilities=[[value, "g1", "2"]]
    )


def good_id(value):
    """A ``solve`` command line for the one-edge instance whose good id is
    ``value``, in its goods list and its utility row."""
    return edited_instance(goods=[value], utilities=[["b1", value, "2"]])


def long_budget(budget):
    """A ``solve`` command line for an instance whose budget is ``budget``."""
    doc = {**ONE_EDGE, "buyers": [{"id": "b1", "budget": "BUDGET"}]}
    return instance_text(json.dumps(doc).replace('"BUDGET"', budget))


def nested_arrays(command):
    """A command line whose input (``solve``) or solution (``verify``)
    document is 100,000 arrays deep, past the JSON decoder's recursion
    limit."""

    def argv(instance_file, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        if command == "solve":
            return ["solve", "--input", str(path)]
        return ["verify", "--input", str(instance_file), "--solution", str(path)]

    return argv


def weak_section(doc):
    return doc["results"]["weak"]["equilibrium"]


INPUT_ERRORS = {
    "verify_zero_price": edited_solution(
        lambda doc: weak_section(doc)["prices"].update(g1="0")
    ),
    "verify_missing_price": edited_solution(
        lambda doc: weak_section(doc)["prices"].pop("g1")
    ),
    "verify_unknown_buyer": edited_solution(
        lambda doc: weak_section(doc)["spending"].append(["b9", "g1", "1"])
    ),
    "verify_unknown_good_price": edited_solution(
        lambda doc: weak_section(doc)["prices"].update(g9="-3")
    ),
    "verify_unknown_buyer_refund": edited_solution(
        lambda doc: weak_section(doc)["refunds"].update(b9="5")
    ),
    "verify_unknown_good_spending": edited_solution(
        lambda doc: weak_section(doc)["spending"].append(["b1", "g9", "0"])
    ),
    # a wrong row before the right one, which would overwrite it
    "verify_second_spending_row": edited_solution(
        lambda doc: weak_section(doc)["spending"].insert(0, ["b1", "g1", "7"])
    ),
    "verify_quantity_999": edited_solution(
        lambda doc: weak_section(doc)["quantities"][0].__setitem__(2, "999")
    ),
    "verify_quantity_unknown_good": edited_solution(
        lambda doc: weak_section(doc)["quantities"].append(["b1", "g9", "1"])
    ),
    "verify_quantities_empty": edited_solution(
        lambda doc: weak_section(doc).update(quantities=[])
    ),
    "verify_certificate_pass_false": edited_solution(
        lambda doc: doc["results"]["weak"]["certificate"].update({"pass": False})
    ),
    "verify_sigma_above_bound": edited_solution(
        lambda doc: doc["perturbation"].update(sigma="1")
    ),
    "verify_seed_float": seed_written_as(1.9),
    "verify_seed_boolean": seed_written_as(True),
    "verify_seed_string": seed_written_as("1"),
    "solve_output_in_missing_dir": unwritable("--output"),
    "solve_trace_in_missing_dir": unwritable("--trace"),
    "solve_negative_retries": lambda instance_file, _: [
        "solve",
        "--input",
        str(instance_file),
        "--max-retries",
        "-1",
    ],
    # one digit past CPython's default int-string limit of 4300 digits
    "solve_budget_string_4301_digits": long_budget('"' + "1" * 4301 + '"'),
    "solve_budget_number_4301_digits": long_budget("1" * 4301),
    "solve_nested_100000_deep": nested_arrays("solve"),
    "solve_buyers_number": edited_instance(buyers=5),
    "solve_buyers_null": edited_instance(buyers=None),
    "solve_buyers_string": edited_instance(buyers="b1"),
    "solve_goods_number": edited_instance(goods=7),
    "solve_goods_string": edited_instance(goods="g1"),
    "solve_utilities_null": edited_instance(utilities=None),
    "solve_empty_lists": edited_instance(buyers=[], goods=[], utilities=[]),
    "solve_top_level_array": instance_text(json.dumps([ONE_EDGE])),
    "solve_budget_zero_denominator": edited_instance(
        buyers=[{"id": "b1", "budget": "3/0"}]
    ),
    # ids that are neither strings nor integers, each used consistently, so
    # that only its type is wrong (str() would make each a valid id)
    "solve_buyer_id_null": buyer_id(None),
    "solve_buyer_id_object": buyer_id({"a": 1}),
    "solve_buyer_id_boolean": buyer_id(True),
    "solve_good_id_list": good_id([1]),
    "solve_good_id_float": good_id(1.5),
    "solve_good_id_boolean": good_id(False),
    "solve_utility_buyer_id_null": edited_instance(
        buyers=[{"id": "None", "budget": 3}], utilities=[[None, "g1", "2"]]
    ),
    "solve_utility_good_id_float": edited_instance(
        goods=["1.0"], utilities=[["b1", 1.0, "2"]]
    ),
    "verify_nested_100000_deep": nested_arrays("verify"),
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_error_exits_one(case, instance_file, tmp_path, capsys):
    argv = INPUT_ERRORS[case](instance_file, tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
