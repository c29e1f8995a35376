"""Command-line interface: solve, verify, determinism."""

import copy
import functools
import hashlib
import json
import operator
import random

import pytest

from arcticauction import driver
from arcticauction.cli import main
from arcticauction.core import format_rational, parse_rational
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
            [b, g, format_rational(inst.utilities[(b, g)])] for b, g in inst.edge_names
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


# two buyers and two goods; at seed 3 b1 holds a refund and b2 none
TWO_BY_TWO = {
    "buyers": [{"id": "b1", "budget": 3}, {"id": "b2", "budget": "5/2"}],
    "goods": ["g1", "g2"],
    "utilities": [["b1", "g1", "2"], ["b1", "g2", "1"], ["b2", "g1", "1"], ["b2", "g2", "3"]],
}


def stated_values(doc):
    """What a solution document states, read exactly: its perturbation
    and, per result, its prices, refunds, spending and quantity rows (in
    order, duplicates kept) and its stored certificate."""

    def rows(field):
        return [(b, g, parse_rational(v)) for b, g, v in field]

    results = {}
    for name, result in doc["results"].items():
        section = result["equilibrium"]
        results[name] = (
            {g: parse_rational(v) for g, v in section["prices"].items()},
            {b: parse_rational(v) for b, v in section["refunds"].items()},
            rows(section["spending"]),
            rows(section["quantities"]),
            result["certificate"],
        )
    perturbation = doc["perturbation"]
    return parse_rational(perturbation["sigma"]), perturbation["seed"], results


def single_edits(doc):
    """Every single edit of one checked field of a solution document, as
    (what, path, change), where ``change(parent, key)`` edits ``parent[key]``
    in place for the field at ``path``: each number moved by one, halved
    and rewritten unreduced, each edge row also dropped and duplicated, the
    seed moved by one and each certificate flag flipped.  The run
    statistics and ``retries_used`` are not checked, so not edited."""

    def set_to(value):
        return lambda parent, key: parent.__setitem__(key, value)

    def duplicate(rows, i):
        rows.insert(i, rows[i])

    def flip(parent, key):
        parent[key] = not parent[key]

    def number(path, text):
        value = parse_rational(text)
        yield "plus one", path, set_to(format_rational(value + 1))
        yield "halved", path, set_to(format_rational(value / 2))
        unreduced = f"{2 * value.numerator}/{2 * value.denominator}"
        yield f"as {unreduced}", path, set_to(unreduced)

    yield from number(("perturbation", "sigma"), doc["perturbation"]["sigma"])
    yield "plus one", ("perturbation", "seed"), set_to(doc["perturbation"]["seed"] + 1)
    for name, result in doc["results"].items():
        section = ("results", name, "equilibrium")
        for field in ("prices", "refunds"):
            for key, text in result["equilibrium"][field].items():
                yield from number((*section, field, key), text)
        for field in ("spending", "quantities"):
            for i, row in enumerate(result["equilibrium"][field]):
                yield from number((*section, field, i, 2), row[2])
                yield "dropped", (*section, field, i), list.pop
                yield "duplicated", (*section, field, i), duplicate
        flags = [("pass",)]
        flags += [("conditions", j, "ok") for j in range(len(result["certificate"]["conditions"]))]
        for flag in flags:
            yield "flipped", ("results", name, "certificate", *flag), flip


def test_every_single_edit_of_a_solution_changes_nothing_or_fails_verify(tmp_path, capsys):
    """A document ``verify`` accepts states the solved equilibrium: an
    edit that changes what the document states makes it exit 1, and one
    that only rewrites a number leaves it passing."""
    market, out, edited = (tmp_path / name for name in ("market.json", "out.json", "edited.json"))
    market.write_text(json.dumps(TWO_BY_TWO))
    solve = ["solve", "--input", str(market), "--algorithm", "both", "--seed", "3"]
    assert main(solve + ["--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert any(v != "0" for v in doc["results"]["weak"]["equilibrium"]["refunds"].values())
    verify = ["verify", "--input", str(market), "--solution", str(edited)]
    outcomes = []
    for what, path, change in single_edits(doc):
        changed = copy.deepcopy(doc)
        parent = functools.reduce(operator.getitem, path[:-1], changed)
        change(parent, path[-1])
        edited.write_text(json.dumps(changed))
        same = stated_values(changed) == stated_values(doc)
        outcomes.append((f"{'.'.join(map(str, path))} {what}", same, main(verify)))
    capsys.readouterr()
    assert [o for o in outcomes if o[2] != (0 if o[1] else 1)] == []
    # both kinds occur: rewritten numbers and changed values
    assert {same for _, same, _ in outcomes} == {True, False}


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
    # runs 16 price-raising iterations over two delayed restarts, each
    # followed by its phase's halving; the n = 8
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
                    "cdf3b40175dd68857ca4a2e10966a585446a0c51df67dd36a49a36474a010d4a",
                    "714c01f0c5e9ffbba0b771d76e6b6ba4248ddc21ff08b9e565536574b048d278",
                ),
            ),
            (
                lambda: random_instance(6, random.Random(0)),
                "both",
                (
                    "6464c6788d8c5fd2ccf5a0ad8decb5d4c5dfaba1ec3f879086f09937deb68aee",
                    "8f96619b1651c7a247714b886dd131a3e45950f5a07964700b0953fa800a8282",
                ),
            ),
            (
                lambda: random_instance(8, random.Random(1)),
                "weak",
                (
                    "352dc49e3727b3237d2ac43b7bb0d44c01338166cbc449e81de34de8f5666868",
                    "d9925a0c0e9dba23d7832991bf9ca2f002eb14d592d7125be5e233f5ac854c4e",
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


def test_negative_retries_are_an_input_error(instance_file, capsys):
    # a caller error, not a genericity verdict: the driver owns the rule,
    # and the command line exits 1 with its message
    from arcticauction.core import InstanceError, load_instance

    inst = load_instance(str(instance_file))
    with pytest.raises(InstanceError, match="max_retries must be >= 0, not -1"):
        driver.solve_instance(inst, max_retries=-1)
    assert driver.solve_instance(inst, max_retries=0).retries_used == 0
    argv = ["solve", "--input", str(instance_file), "--max-retries", "-1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: max_retries must be >= 0, not -1\n"


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
    "verify_results_empty": edited_solution(lambda doc: doc.update(results={})),
    # a section under a name no solver has, copied from the weak one
    "verify_unknown_algorithm": edited_solution(
        lambda doc: doc["results"].update(bogus=doc["results"]["weak"])
    ),
    "verify_sigma_above_bound": edited_solution(
        lambda doc: doc["perturbation"].update(sigma="1")
    ),
    # shapes that once ended in Python's own exception text; see
    # VERIFY_SHAPE_ERRORS for the error each names instead
    "verify_spending_row_short": edited_solution(
        lambda doc: weak_section(doc)["spending"][0].pop()
    ),
    "verify_spending_string": edited_solution(
        lambda doc: weak_section(doc).update(spending="b1 g1 1")
    ),
    "verify_prices_array": edited_solution(
        lambda doc: weak_section(doc).update(prices=["1"])
    ),
    "verify_result_null": edited_solution(lambda doc: doc["results"].update(weak=None)),
    "verify_perturbation_array": edited_solution(
        lambda doc: doc.update(perturbation=[doc["perturbation"]])
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
    # digits outside ASCII, which int() would read as 3/4 and 1/2
    "solve_budget_arabic_indic_digits": edited_instance(
        buyers=[{"id": "b1", "budget": "٣/٤"}]
    ),
    "solve_utility_fullwidth_digit": edited_instance(utilities=[["b1", "g1", "1/２"]]),
    # whitespace outside ASCII, which str.strip() would remove
    "solve_budget_no_break_space": edited_instance(
        buyers=[{"id": "b1", "budget": "\u00a03"}]
    ),
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
    # usage errors are input errors too: exit 2 means no generic perturbation
    "usage_solve_without_input": lambda *_: ["solve"],
    "usage_solve_seed_not_an_integer": lambda instance_file, _: [
        "solve",
        "--input",
        str(instance_file),
        "--seed",
        "abc",
    ],
    # read as an option, not as the value of --perturb
    "usage_solve_perturb_negative": lambda instance_file, _: [
        "solve",
        "--input",
        str(instance_file),
        "--perturb",
        "-1/2",
    ],
    "usage_unknown_command": lambda *_: ["frobnicate"],
}


@pytest.mark.parametrize("algorithm", ["weak", "strong"])
def test_a_refused_state_move_exits_three(algorithm, instance_file, capsys, monkeypatch):
    # a halving that asks the state to count in two thirds of its unit: the
    # state refuses a scale that does not divide, and that refusal is an
    # internal solver error, not a traceback
    from arcticauction import strong, weak

    def bad_halving(inst, market):
        market.rescale(market.unit * 2 / 3)

    for module in (weak, strong):
        monkeypatch.setattr(module, "halve_and_repair", bad_halving)
    argv = ["solve", "--input", str(instance_file), "--algorithm", algorithm]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("internal error: cannot recount units")


def test_weak_phase_budget_error_names_its_bound(instance_file, capsys, monkeypatch):
    # a ladder cut short of its end: the halving solver names the last
    # phase it allows, as the strong solver does
    from arcticauction import weak

    monkeypatch.setattr(weak, "max_phases", lambda stats: 1)
    argv = ["solve", "--input", str(instance_file), "--algorithm", "weak"]
    assert main(argv) == 3
    assert capsys.readouterr().err == "internal error: phase budget 1 exceeded\n"


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_error_exits_one(case, instance_file, tmp_path, capsys):
    argv = INPUT_ERRORS[case](instance_file, tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    # no verdict is printed for a document that is an input error
    assert captured.out == ""


# the error each malformed solution document names: the field, by its
# path in the document, and the shape it needs, not Python's exception text
VERIFY_SHAPE_ERRORS = {
    "verify_spending_row_short": "malformed equilibrium section (row ['b1', 'g1'] of"
    " 'results.weak.equilibrium.spending' must be [buyer id, good id, value])",
    "verify_spending_string": "malformed equilibrium section (field"
    " 'results.weak.equilibrium.spending' must be an array, not a string)",
    "verify_prices_array": "malformed equilibrium section (field"
    " 'results.weak.equilibrium.prices' must be an object, not an array)",
    "verify_result_null": "malformed equilibrium section (field 'results.weak'"
    " must be an object, not null)",
    "verify_perturbation_array": "malformed solution document (field 'perturbation'"
    " must be an object, not an array)",
}


@pytest.mark.parametrize("case", sorted(VERIFY_SHAPE_ERRORS))
def test_a_malformed_solution_names_the_field_and_its_shape(
    case, instance_file, tmp_path, capsys
):
    argv = INPUT_ERRORS[case](instance_file, tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {VERIFY_SHAPE_ERRORS[case]}\n"


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage:")
