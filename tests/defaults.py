"""Config-set objects built from `cli.DEFAULT_CONFIG`, the one place that
holds their default values.

Imported by name (`from defaults import configured`), like gradcheck.
"""

import dataclasses

from vdmini import cli


def configured(cls, section: str, **changes):
    """A `cls` dataclass whose fields take their values from
    `cli.DEFAULT_CONFIG[section]`, then from `changes`."""
    values = cli.DEFAULT_CONFIG[section]
    return cls(**{**{f.name: values[f.name] for f in dataclasses.fields(cls)}, **changes})
