"""The two size numbers ROADMAP tracks, printed as JSON.

    python3 tools/counts.py

`src_lines` is `cat src/mapprior/*.py src/mapprior/nn/*.py | wc -l`.
`settable_values` counts what a user can set: each command's CLI options
(shared ones once per command, `--help` not at all), read from
`cli.build_parser()`, plus the constructor fields of the config dataclasses.
The package is imported from the `src/` next to this file.  Only names that
older trees also have are used, so the file can be copied into another tree.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mapprior import baselines, cli, model, nn, particle_filter, simulate  # noqa: E402

CONFIGS = (model.ModelConfig, particle_filter.FilterConfig, simulate.NoiseProfile,
           baselines.CrfParams, nn.AdamState)


def src_lines() -> int:
    files = sorted((ROOT / "src/mapprior").glob("*.py"))
    files += sorted((ROOT / "src/mapprior/nn").glob("*.py"))
    return sum(f.read_bytes().count(b"\n") for f in files)


def cli_options() -> dict[str, int]:
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: sum(not isinstance(a, argparse._HelpAction) for a in p._actions)
            for name, p in sub.choices.items()}


def config_fields() -> dict[str, int]:
    return {c.__name__: sum(f.init for f in dataclasses.fields(c)) for c in CONFIGS}


def main() -> None:
    options, fields = cli_options(), config_fields()
    print(json.dumps({
        "src_lines": src_lines(),
        "settable_values": {
            "total": sum(options.values()) + sum(fields.values()),
            "cli_options": options,
            "config_fields": fields,
        },
    }, indent=1))


if __name__ == "__main__":
    main()
