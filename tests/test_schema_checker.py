"""The scenario schema's own checker against jsonschema.

``validate_scenario`` checks a scenario with a small recursive checker over
``SCENARIO_SCHEMA``.  The reference it replaces, jsonschema's Draft 2020-12
validator with an integer only an int and a number only a finite one, is
kept here: both must accept the same scenarios and reject the rest with the
same messages, in the same order.
"""

import math

import jsonschema
from hypothesis import given, settings, strategies as st

from equifix.scenarios import (_KEYWORD_TYPES, _TYPES, SCENARIO_SCHEMA,
                               Scenario, ScenarioError, validate_scenario)

_BASE = jsonschema.Draft202012Validator
_CHECKER = _BASE.TYPE_CHECKER.redefine_many({
    "integer": lambda _, x: isinstance(x, int) and not isinstance(x, bool),
    "number": lambda _, x: not isinstance(x, bool) and (
        isinstance(x, int) or isinstance(x, float) and math.isfinite(x)),
})
REFERENCE = jsonschema.validators.extend(_BASE, type_checker=_CHECKER)(SCENARIO_SCHEMA)


def reference_outcome(data):
    """None if jsonschema accepts ``data``, else the message that
    ``validate_scenario`` raised with before it had its own checker."""
    errors = sorted(REFERENCE.iter_errors(data), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    lines = []
    for e in errors:
        x = e.instance
        said = (f"{x!r} is not a finite number"
                if isinstance(x, float) and not math.isfinite(x) else e.message)
        lines.append(f"\n/{'/'.join(str(p) for p in e.absolute_path)}: {said}")
    return "scenario schema violations:" + "".join(lines)


def checker_outcome(data):
    try:
        validate_scenario(data)
    except ScenarioError as exc:
        return str(exc)
    return None


SPECIAL = [True, False, None, 0, 1, -1, -0.0, 0.0, 0.5, 3.0, float("nan"),
           float("inf"), float("-inf"), 2 ** 64, 2 ** 64 - 1, -2 ** 64, 1e308,
           "", "x", "rep", [], {}]
JUNK = st.recursive(
    st.sampled_from(SPECIAL) | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6)
EDGES = [True, False, -0.0, float("nan"), float("inf"), float("-inf"), 2 ** 64]
# Keys no schema object knows; two or more at once give the sorted list
# "('a', 'x' were unexpected)".
UNKNOWN = {"x": JUNK, "a": JUNK, "bogus": JUNK}


def mostly(usual, rare, odds=4):
    """``usual``, or one time in ``odds`` ``rare``."""
    return st.integers(1, odds).flatmap(lambda k: rare if k == 1 else usual)


def instances(schema):
    """Instances of ``schema``: built from its keywords (numbers inside the
    bounds, or now and then at or one step past one or in EDGES; arrays now
    and then one item short or over; objects with each optional property or
    not, now and then without a required one or with unknown keys), or, one
    time in eight, JUNK."""
    if "enum" in schema:
        near = st.sampled_from(schema["enum"])
    elif schema.get("type") in ("integer", "number"):
        lo = schema.get("minimum", schema.get("exclusiveMinimum", -10))
        hi = schema.get("maximum", 10)
        inside = (st.integers(lo, hi) if schema["type"] == "integer"
                  else st.floats(lo, hi, exclude_min="exclusiveMinimum" in schema))
        bounds = [schema[k] for k in ("minimum", "maximum", "exclusiveMinimum")
                  if k in schema]
        near = mostly(inside, st.sampled_from(
            [b + step for b in bounds for step in (-1, 0, 1)]
            + [float(b) for b in bounds] + EDGES))
    elif schema.get("type") == "array":
        lo, hi = schema.get("minItems", 0), schema.get("maxItems", 2)
        item = instances(schema["items"])
        near = mostly(st.integers(lo, hi), st.sampled_from([max(lo - 1, 0), hi + 1])
                      ).flatmap(lambda n: st.lists(item, min_size=n, max_size=n))
    elif "properties" in schema:
        required = schema.get("required", [])
        props = {k: instances(s) for k, s in schema["properties"].items()}
        kept = {k: s for k, s in props.items() if k in required}
        near = st.tuples(mostly(st.just(True), st.just(False)),
                         mostly(st.just({}), st.just(UNKNOWN))).flatmap(
            lambda coins: st.fixed_dictionaries(
                kept if coins[0] else {},
                optional={**{k: s for k, s in props.items()
                             if k not in required or not coins[0]}, **coins[1]}))
    else:
        return JUNK
    return mostly(near, JUNK, odds=8)


@settings(max_examples=300, deadline=None)
@given(instances(SCENARIO_SCHEMA))
def test_checker_agrees_with_jsonschema(data):
    assert checker_outcome(data) == reference_outcome(data)


def test_checker_agrees_with_jsonschema_on_named_cases():
    cases = [
        {"kind": "rep", "seed": 0},
        {"kind": "rep", "seed": 0, "trials": -0.0, "x": 1, "a": 2},
        {"kind": "rep", "seed": 0, "trials": float("inf")},
        {"kind": float("nan"), "seed": 2 ** 64, "magnitude": True},
        {"kind": "graded", "seed": 0, "graded_data": {
            "seeds": [[[[1, 2, 3]]], [], [[[0.5, float("-inf")]]]], "q": 1}},
        {"kind": "lift", "seed": 0, "tower": {"ratio": 0, "levels": 2.0, "y": 0},
         "source": {"model": None, "order": 25}},
        [], {}, None, float("nan"),
    ]
    outcomes = [checker_outcome(data) for data in cases]
    assert outcomes == [reference_outcome(data) for data in cases]
    assert outcomes[0] is None
    assert outcomes[1] == ("scenario schema violations:\n"
                           "/: Additional properties are not allowed "
                           "('a', 'x' were unexpected)\n"
                           "/trials: -0.0 is not of type 'integer'\n"
                           "/trials: -0.0 is less than the minimum of 1")
    assert outcomes[2].endswith("\n/trials: inf is not a finite number")
    assert outcomes[2].count("\n") == 1


def keywords(schema):
    """Every keyword that ``schema`` uses, its subschemas' included; a type
    the checker has no predicate for, or additionalProperties other than
    false, is named as itself so that the guard below fails on it."""
    for key, value in schema.items():
        if key == "type" and value not in _TYPES:
            yield f"type {value!r}"
        elif key == "additionalProperties" and value is not False:
            yield f"additionalProperties {value!r}"
        else:
            yield key
        if key == "properties":
            for sub in value.values():
                yield from keywords(sub)
        elif key == "items":
            yield from keywords(value)


def test_schema_uses_only_keywords_the_checker_implements():
    used = set(keywords(SCENARIO_SCHEMA))
    assert used <= set(_KEYWORD_TYPES), used - set(_KEYWORD_TYPES)


def test_schema_properties_are_the_scenario_fields():
    # A dict the schema admits has no key but a field's, so
    # Scenario.from_dict passes it to Scenario whole.
    assert SCENARIO_SCHEMA["additionalProperties"] is False
    assert set(SCENARIO_SCHEMA["properties"]) == set(Scenario.__dataclass_fields__)
