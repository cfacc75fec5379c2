"""The store-key field tables name only live ``RunOptions`` fields.

``options_fingerprint`` skips :data:`EXECUTION_FIELDS` and elides
:data:`NEUTRAL_DEFAULTS` by field name, so a name left behind after its
knob is deleted would fail silently: nothing would ever match it.
"""
import dataclasses

import pytest

from repro.harness.options import RunOptions
from repro.store.keys import EXECUTION_FIELDS, NEUTRAL_DEFAULTS

FIELDS = {f.name for f in dataclasses.fields(RunOptions)}


@pytest.mark.parametrize("table,names", [
    ("EXECUTION_FIELDS", sorted(EXECUTION_FIELDS)),
    ("NEUTRAL_DEFAULTS", sorted(NEUTRAL_DEFAULTS)),
])
def test_key_tables_name_run_options_fields(table, names):
    stale = [name for name in names if name not in FIELDS]
    assert not stale, f"{table} names removed RunOptions fields: {stale}"


def test_neutral_defaults_are_the_field_defaults():
    defaults = RunOptions()
    for name, value in NEUTRAL_DEFAULTS.items():
        assert getattr(defaults, name) == value
