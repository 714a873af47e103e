"""Hostile files for every loader: the only failure allowed is an EchoFeedError.

Two kinds of input: arbitrary bytes, and documents that are structurally
valid but have one value replaced by an arbitrary JSON value (or, for the
CSV, rows whose fields are arbitrary text and numbers).
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from echofeed.cli import _load_keystore
from echofeed.errors import EchoFeedError
from echofeed.ledger import Keypair, load_ledger, load_profile, new_ledger, set_consent
from echofeed.model import init_model, load_model
from echofeed.ratings import load_csv

KEY = Keypair(bytes(range(32)))
_chain = new_ledger(timestamp=5)
set_consent(_chain, KEY, True, 6)

VALID = {
    load_model: {
        "k": 2, "gamma": 0.1,
        "user_factors": init_model(2, 1, 2, 0.0, 0).user_factors.tolist(),
        "event_factors": [[0.5, -0.25]],
    },
    load_profile: {
        "public_key_hex": KEY.public_key.hex(),
        "blocks": [b.to_json_dict() for b in _chain],
    },
    _load_keystore: {"0": "11" * 32, "1": "22" * 32},
}
LOADERS = [load_model, load_profile, _load_keystore, load_csv, load_ledger]

scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([float("inf"), float("nan"), 2**64, 10**400])
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)


def only_domain_errors(load, path):
    try:
        load(path)
    except EchoFeedError:
        pass


@settings(max_examples=300, deadline=None)
@given(load=st.sampled_from(LOADERS), data=st.binary(max_size=64))
def test_arbitrary_bytes(fresh_path, load, data):
    path = fresh_path()
    path.write_bytes(data)
    only_domain_errors(load, path)


@st.composite
def mistyped(draw, doc):
    """The document with one value, at any depth, replaced or dropped."""
    if not isinstance(doc, (dict, list)) or not doc or draw(st.integers(0, 3)) == 0:
        return draw(scalars | json_values)
    doc = dict(doc) if isinstance(doc, dict) else list(doc)
    key = draw(st.sampled_from(list(doc) if isinstance(doc, dict) else range(len(doc))))
    if isinstance(doc, dict) and draw(st.integers(0, 4)) == 0:
        del doc[key]
    else:
        doc[key] = draw(mistyped(doc[key]))
    return doc


@settings(max_examples=300, deadline=None)
@given(data=st.data(), load=st.sampled_from(list(VALID)))
def test_mistyped_json(fresh_path, data, load):
    path = fresh_path()
    path.write_text(json.dumps(data.draw(mistyped(VALID[load]))), encoding="utf-8")
    only_domain_errors(load, path)


csv_fields = st.one_of(
    st.integers(), st.floats(), st.text(max_size=6), st.sampled_from(["", " 1", "1e3", "nan"])
).map(str)


@settings(max_examples=200, deadline=None)
@given(
    header=st.sampled_from(["", "# users=3 events=3\n", "# users=0 events=0\n", "# users=x\n"]),
    rows=st.lists(st.lists(csv_fields, min_size=2, max_size=4), max_size=5),
)
def test_mistyped_csv(fresh_path, header, rows):
    path = fresh_path()
    path.write_text(header + "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    only_domain_errors(load_csv, path)
