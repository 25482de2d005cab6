"""Tests of the typed parameter schema layer (`repro.runner.params`)."""

import pytest

from repro.runner.params import (PARAM_LITERALS, ParamSchema, ParamSpec,
                                 ParameterValueError, UnknownParameterError,
                                 parse_param)


class TestParamSpec:
    def test_int_coercion_accepts_equivalent_spellings(self):
        spec = ParamSpec("n", "int", 1)
        assert spec.coerce(4) == 4
        assert spec.coerce("4") == 4
        assert spec.coerce(4.0) == 4
        assert spec.coerce(" 4 ") == 4

    def test_int_rejects_non_integral_and_bool(self):
        spec = ParamSpec("n", "int", 1)
        with pytest.raises(ParameterValueError):
            spec.coerce(4.5)
        with pytest.raises(ParameterValueError):
            spec.coerce(True)
        with pytest.raises(ParameterValueError):
            spec.coerce("four")

    def test_float_coercion(self):
        spec = ParamSpec("x", "float", 0.5)
        assert spec.coerce(2) == 2.0
        assert isinstance(spec.coerce(2), float)
        assert spec.coerce("0.25") == 0.25
        with pytest.raises(ParameterValueError):
            spec.coerce("nan")  # non-finite never canonicalises
        with pytest.raises(ParameterValueError):
            spec.coerce(False)

    def test_bool_is_strict(self):
        spec = ParamSpec("flag", "bool", False)
        assert spec.coerce(True) is True
        with pytest.raises(ParameterValueError):
            spec.coerce(1)
        with pytest.raises(ParameterValueError):
            spec.coerce("true")  # the CLI normalises before the schema

    def test_str_choices(self):
        spec = ParamSpec("mode", "str", "fast", choices=("fast", "slow"))
        assert spec.coerce("slow") == "slow"
        with pytest.raises(ParameterValueError, match="one of"):
            spec.coerce("medium")
        with pytest.raises(ParameterValueError):
            spec.coerce(3)

    def test_bounds_are_inclusive(self):
        spec = ParamSpec("n", "int", 5, minimum=1, maximum=10)
        assert spec.coerce(1) == 1
        assert spec.coerce(10) == 10
        with pytest.raises(ParameterValueError, match="out of bounds"):
            spec.coerce(0)
        with pytest.raises(ParameterValueError, match="out of bounds"):
            spec.coerce(11)

    def test_list_elements_are_coerced_and_bounded(self):
        spec = ParamSpec("loads", "list", [0.2], element="float",
                         minimum=0.0, maximum=1.0)
        assert spec.coerce([0.1, "0.5", 1]) == [0.1, 0.5, 1.0]
        assert spec.coerce((0.1, 0.2)) == [0.1, 0.2]  # tuples canonicalise
        with pytest.raises(ParameterValueError):
            spec.coerce([0.1, 1.5])
        with pytest.raises(ParameterValueError):
            spec.coerce(0.1)  # a bare scalar is not a list

    def test_nullable_is_implied_by_a_none_default(self):
        spec = ParamSpec("cap", "int", None, minimum=1)
        assert spec.nullable
        assert spec.coerce(None) is None
        assert spec.coerce("3") == 3
        strict = ParamSpec("n", "int", 1)
        with pytest.raises(ParameterValueError, match="None"):
            strict.coerce(None)

    def test_default_is_validated_at_declaration_time(self):
        with pytest.raises(ParameterValueError):
            ParamSpec("n", "int", 99, minimum=1, maximum=10)
        with pytest.raises(ParameterValueError):
            ParamSpec("mode", "str", "bogus", choices=("fast", "slow"))

    def test_declaration_errors(self):
        with pytest.raises(ValueError, match="unknown type"):
            ParamSpec("n", "complex", 1)
        with pytest.raises(ValueError, match="element"):
            ParamSpec("n", "int", 1, element="int")
        with pytest.raises(ValueError, match="element"):
            ParamSpec("xs", "list", [], element="bool")

    @pytest.mark.parametrize("kwargs,expected", [
        (dict(type="int", default=5, minimum=1, maximum=10),
         "int in [1, 10]"),
        (dict(type="float", default=0.5, minimum=0.0), "float >= 0"),
        (dict(type="str", default="a", choices=("a", "b")),
         "one of 'a', 'b'"),
        (dict(type="list", default=[1], element="int"), "list[int]"),
        (dict(type="int", default=None, minimum=0, maximum=14),
         "int in [0, 14] or None"),
    ])
    def test_domain_rendering(self, kwargs, expected):
        assert ParamSpec("p", **kwargs).domain() == expected

    def test_payload_is_json_safe(self):
        import json
        spec = ParamSpec("mode", "str", "fast", choices=("fast", "slow"),
                         doc="speed mode")
        payload = spec.to_payload()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["domain"] == "one of 'fast', 'slow'"


class TestParamSchema:
    def schema(self):
        return ParamSchema([
            ParamSpec("num_windows", "int", 15, minimum=1, maximum=30),
            ParamSpec("mode", "str", "fast", choices=("fast", "slow")),
        ])

    def test_resolve_merges_and_coerces(self):
        assert self.schema().resolve({"num_windows": "4"}) == \
            {"num_windows": 4, "mode": "fast"}

    def test_unknown_name_suggests(self):
        with pytest.raises(UnknownParameterError,
                           match="Did you mean: num_windows"):
            self.schema().resolve({"num_widnows": 4})

    def test_error_messages_name_the_experiment(self):
        with pytest.raises(UnknownParameterError, match="'fig6_csma'"):
            self.schema().resolve({"nope": 1}, experiment="fig6_csma")
        with pytest.raises(ParameterValueError, match="'fig6_csma'"):
            self.schema().resolve({"num_windows": 0}, experiment="fig6_csma")

    def test_declaration_order_is_preserved(self):
        assert self.schema().names() == ("num_windows", "mode")
        assert list(self.schema().defaults()) == ["num_windows", "mode"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="Duplicate"):
            ParamSchema([ParamSpec("a", "int", 1), ParamSpec("a", "int", 2)])

    def test_mapping_protocol(self):
        schema = self.schema()
        assert len(schema) == 2
        assert "mode" in schema and "nope" not in schema
        assert bool(schema)
        assert not ParamSchema()


class TestParseParam:
    """The shared --param reader used by both the runner and sweep CLIs."""

    @pytest.mark.parametrize("text,expected", [
        ("flag=true", ("flag", True)),
        ("flag=FALSE", ("flag", False)),
        ("cap=none", ("cap", None)),
        ("cap=NULL", ("cap", None)),
        ("cap=None", ("cap", None)),          # literal_eval path
        ("mode=fast", ("mode", "fast")),      # plain string stays a string
        ("empty=", ("empty", "")),
        ("expr=a=b", ("expr", "a=b")),        # only the first '=' splits
        ("n=3", ("n", 3)),
        ("xs=[1, 2]", ("xs", [1, 2])),
    ])
    def test_value_normalisation(self, text, expected):
        assert parse_param(text) == expected

    @pytest.mark.parametrize("text", ["oops", "=3", ""])
    def test_malformed_overrides_rejected(self, text):
        with pytest.raises(ValueError, match="key=value"):
            parse_param(text)

    def test_both_clis_share_the_single_implementation(self):
        """Satellite: one normalisation table, one parser — the runner and
        sweep CLIs both delegate to repro.runner.params.parse_param."""
        from repro.runner import cli as runner_cli
        from repro.sweep import cli as sweep_cli
        assert runner_cli.parse_param is parse_param
        assert sweep_cli.parse_param is parse_param
        assert runner_cli._parse_param("n=3") == ("n", 3)
        assert sweep_cli._parse_param("n=3") == ("n", 3)
        assert set(PARAM_LITERALS) == {"true", "false", "none", "null"}
