import json

from hypothesis import given, settings
from hypothesis import strategies as st

from bernray.report import json_text

# every string: non-ASCII, control characters and lone surrogates included
TEXT = st.text(st.characters(blacklist_categories=()), max_size=8)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-10**60, 10**60)
    | st.floats()
    | st.sampled_from([0.0, -0.0, 1e-320, 1e308, float("inf"), float("-inf"), float("nan")])
    | TEXT
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXT, children, max_size=4)
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_text_matches_json_dumps_indent_2(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_json_text_empty_containers_and_nesting():
    value = {"a": [], "b": {}, "c": [[], {}, ()], "d": ({"e": None},), "": "\x00é\U0001f600"}
    assert json_text(value) == json.dumps(value, indent=2)
