import json

import numpy as np
import pytest

from bosonic_ds.errors import ValidationError
from bosonic_ds.fock import FockSpace, gaussify, moments, validate_density
from bosonic_ds.io import (canonical_dumps, csv_text, format_float, load_matrix,
                           save_matrix)
from bosonic_ds.states import (density_from_dict, density_to_dict, fock_state,
                               golden_dir, load_density, load_golden, mixture,
                               parse_state_spec, save_density, thermal_state,
                               vacuum)


def test_fock_state_level_validation(space14):
    with pytest.raises(ValidationError):
        fock_state(space14, 14)
    with pytest.raises(ValidationError):
        fock_state(space14, (1, 2))


def test_thermal_matches_geometric_law(space14):
    rho = thermal_state(space14, 0.5)
    pops = np.real(np.diag(rho.matrix))
    ratios = pops[1:] / pops[:-1]
    np.testing.assert_allclose(ratios, 1.0 / 3.0, atol=1e-12)
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("nbar", ["inf", "nan", "-0.1"])
def test_thermal_rejects_non_finite_or_negative_occupation(space14, nbar):
    with pytest.raises(ValidationError, match=f"mean occupation >= 0, got {nbar}$"):
        parse_state_spec(f"thermal:{nbar}", space14)


def test_mixture_weight_normalization(space14):
    mix = mixture([(2.0, vacuum(space14)), (2.0, fock_state(space14, 2))])
    gs = gaussify(mix)
    np.testing.assert_allclose(gs.gamma, 3 * np.eye(2), atol=1e-10)
    with pytest.raises(ValidationError):
        mixture([(-1.0, vacuum(space14)), (2.0, fock_state(space14, 2))])


@pytest.mark.parametrize("spec,check", [
    ("vacuum", lambda t: np.allclose(t.gamma, np.eye(2), atol=1e-8)),
    ("fock:1", lambda t: np.allclose(t.gamma, 3 * np.eye(2), atol=1e-8)),
    ("fock1", lambda t: np.allclose(t.gamma, 3 * np.eye(2), atol=1e-8)),
    ("thermal:0.5", lambda t: np.allclose(t.gamma, 2 * np.eye(2), atol=1e-4)),
    ("squeezed:0.25", lambda t: t.gamma[0, 0] > 1.5 > 0.8 > t.gamma[1, 1]),
    ("displaced:1,0", lambda t: abs(t.d[0] - 1) < 1e-6),
])
def test_parse_string_specs(space14, spec, check):
    rho = parse_state_spec(spec, space14)
    assert check(moments(rho))


def test_parse_object_specs(space14, tmp_path):
    rho = parse_state_spec({"kind": "gaussian", "d": [0.0, 0.0],
                            "gamma": [[1.5, 0.0], [0.0, 1.0]]}, space14)
    table = moments(rho)
    assert table.gamma[0, 0] == pytest.approx(1.5, abs=1e-6)

    rho = parse_state_spec({"kind": "mixture", "components": [
        {"weight": 0.5, "state": "vacuum"},
        {"weight": 0.5, "state": "fock:2"}]}, space14)
    assert np.trace(rho.matrix).real == pytest.approx(1.0)

    path = tmp_path / "state.json"
    save_density(vacuum(space14), path)
    rho = parse_state_spec({"kind": "file", "path": str(path)}, space14)
    assert rho.matrix[0, 0].real == pytest.approx(1.0)


def test_parse_unknown_specs(space14):
    with pytest.raises(ValidationError):
        parse_state_spec("coherent-cat", space14)
    with pytest.raises(ValidationError):
        parse_state_spec({"kind": "what"}, space14)
    with pytest.raises(ValidationError):
        parse_state_spec(42, space14)


def test_density_file_round_trip(tmp_path, space14):
    rho = thermal_state(space14, 0.5)
    path = tmp_path / "thermal.json"
    save_density(rho, path)
    back = load_density(path)
    assert back.space == rho.space
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-15)
    with pytest.raises(ValidationError):
        load_density(path, expected_space=FockSpace(1, 8))


def test_density_dict_rejects_corrupted():
    data = density_to_dict(vacuum(FockSpace(1, 4)))
    data["real"][0][0] = 0.5   # trace now 0.5
    with pytest.raises(ValidationError):
        density_from_dict(data)


def test_goldens_load_and_validate():
    names = sorted(p.stem for p in golden_dir().glob("*.json"))
    assert names == ["fock1", "fock2", "fock3", "squeezed_z025",
                     "thermal_nbar05", "vacuum"]
    for name in names:
        validate_density(load_golden(name))
    with pytest.raises(ValidationError):
        load_golden("missing")


def test_goldens_match_regenerated():
    from bosonic_ds.states import squeezed_surrogate

    space = FockSpace(1, 14)
    np.testing.assert_allclose(load_golden("fock2").matrix,
                               fock_state(space, 2).matrix, atol=1e-15)
    np.testing.assert_allclose(load_golden("thermal_nbar05").matrix,
                               thermal_state(space, 0.5).matrix, atol=1e-15)
    np.testing.assert_allclose(load_golden("squeezed_z025").matrix,
                               squeezed_surrogate(space, 0.25).matrix, atol=1e-12)


# --- serialization ---------------------------------------------------------


def test_float_formatting():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    assert format_float(float("nan")) == "null"
    assert format_float(float("inf")) == "null"


def test_canonical_dumps_deterministic():
    payload = {"a": 0.1, "b": [1, 2.5, None], "c": {"nested": True},
               "arr": np.arange(3.0)}
    assert canonical_dumps(payload) == canonical_dumps(payload)
    parsed = json.loads(canonical_dumps(payload))
    assert parsed["a"] == 0.1
    assert parsed["arr"] == [0.0, 1.0, 2.0]


def test_matrix_json_round_trip(tmp_path):
    m = np.array([[1.0, 0.25], [-0.5, 2.0]])
    path = tmp_path / "m.json"
    save_matrix(m, path)
    np.testing.assert_array_equal(load_matrix(path), m)
    (tmp_path / "bad.json").write_text("[1, 2, 3]\n")
    with pytest.raises(ValueError):
        load_matrix(tmp_path / "bad.json")


def test_csv_formatting():
    text = csv_text(["a", "b"], [[0.5, "x"], [1.0, "y"]])
    lines = text.strip().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "0.5,x"


# --- numbers from outside ----------------------------------------------------


@pytest.mark.parametrize("value, message", [
    (True, "must be a number, got True"),
    (None, "must be a number, got None"),
    ("0.5", "must be a number, got '0.5'"),
    ("x", "could not convert string to float: 'x'"),
    ([1.0], "must be a number, got [1.0]"),
    (10 ** 400, "must be a number, got 100000000000000000...0000000000000000000"),
], ids=["bool", "null", "string", "unreadable-string", "array", "huge-int"])
def test_json_number_refuses_what_is_not_a_double(value, message):
    from bosonic_ds.io import json_number

    with pytest.raises(ValueError) as exc:
        json_number(value)
    assert str(exc.value) == message


def test_json_number_and_integer_keep_what_they_accept():
    from bosonic_ds.io import json_integer, json_number

    assert json_number(3) == 3 and type(json_number(3)) is int
    assert json_number(float("nan")) != json_number(float("nan"))
    assert json_number(-1e308) == -1e308
    assert json_integer(8.0) == 8 and type(json_integer(8.0)) is int
    # an int never passes through a double, so no digit is lost
    assert json_integer(2 ** 60 + 1) == 2 ** 60 + 1
    assert json_integer(10 ** 400) == 10 ** 400
    for bad in (8.7, float("inf"), float("nan"), True, "8", None):
        with pytest.raises(ValueError):
            json_integer(bad)


@pytest.mark.parametrize("value, message", [
    ([[1, True]], "must hold numbers, got [[1, True]]"),
    ([0, "1"], "must hold numbers, got [0, '1']"),
    ([[0, None]], "must hold numbers, got [[0, None]]"),
    ([[0, "x"]], "could not convert string to float: 'x'"),
    ([[0], [10 ** 400]],
     "must hold numbers, got [[0], [100000000000000000...0000000000000000000]]"),
    ([[0.5] * 100, [0.5] * 99 + [False]],
     "must hold numbers, got [[0.5, 0.5, 0.5, 0.5, 0.5, 0.5, ...], "
     "[0.5, 0.5, 0.5, 0.5, 0.5, 0.5, ...]]"),
], ids=["bool", "string", "null", "unreadable-string", "huge-int", "long-rows"])
def test_json_array_refuses_any_entry_that_is_not_a_double(value, message):
    from bosonic_ds.io import json_array

    with pytest.raises(ValueError) as exc:
        json_array(value)
    assert str(exc.value) == message


def test_json_array_reads_nested_numbers():
    from bosonic_ds.io import json_array

    np.testing.assert_array_equal(json_array([[1, 0.5], [-2, 3e300]]),
                                  [[1.0, 0.5], [-2.0, 3e300]])
    assert json_array(2).shape == ()


@pytest.mark.parametrize("field, value", [
    ("leak_budget", True), ("density_psd", "1e-8"), ("uncertainty", 0.0),
    ("residual", -1e-9), ("alpha_swap", float("inf")), ("symplectic", None),
    ("boundary", 10 ** 400),
], ids=["bool", "string", "zero", "negative", "inf", "null", "huge-int"])
def test_tolerances_check_their_fields(field, value):
    import reprlib

    from bosonic_ds.config import Tolerances

    with pytest.raises(ValidationError) as exc:
        Tolerances(**{field: value})
    assert str(exc.value) == (f"tolerance {field} must be finite and positive, "
                              f"got {reprlib.repr(value)}")


def test_load_density_names_the_file_and_key(tmp_path):
    path = tmp_path / "d.json"
    data = density_to_dict(vacuum(FockSpace(1, 2)))
    del data["imag"]
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError) as exc:
        load_density(path)
    assert str(exc.value) == f"cannot read density file {path}: missing key 'imag'"
    with pytest.raises(ValidationError, match="^missing key 'imag'$"):
        density_from_dict(data)


def test_load_matrix_names_the_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[1, 0], [0, true]]")
    with pytest.raises(ValidationError) as exc:
        load_matrix(path)
    assert str(exc.value) == (f"cannot read matrix {path}: must hold numbers, "
                              "got [[1, 0], [0, True]]")


def test_read_json_depth_rule(tmp_path):
    from bosonic_ds.io import MAX_JSON_DEPTH, read_json

    path = tmp_path / "nested.json"
    path.write_text("[" * MAX_JSON_DEPTH + '1, "x", null, true' + "]" * MAX_JSON_DEPTH)
    assert read_json("file", path, len) == 1
    # objects nest as arrays do
    for text in ("[" * (MAX_JSON_DEPTH + 1) + "]" * (MAX_JSON_DEPTH + 1),
                 '{"a": ' * MAX_JSON_DEPTH + "[]" + "}" * MAX_JSON_DEPTH):
        path.write_text(text)
        with pytest.raises(ValidationError) as exc:
            read_json("file", path, len)
        assert str(exc.value) == (f"cannot read file {path}: arrays and objects "
                                  f"nest deeper than {MAX_JSON_DEPTH}")
