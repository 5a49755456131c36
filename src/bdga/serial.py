"""JSON forms for transcripts, key files, and platform descriptors.

Element payloads are hex-armored. Files written by the CLI additionally embed
a ``meta`` block (tool version, seed, platform descriptor) so every artifact
is reproducible bit-exactly from its own contents.
"""

from __future__ import annotations

import json
from typing import Any

from . import __version__
from .actions import GroupAction
from .errors import BdgaError
from .groups import GroupElement
from .protocol import Transcript


def transcript_to_obj(transcript: Transcript) -> dict[str, Any]:
    return {
        "platform": transcript.platform,
        "n": transcript.n,
        "v": [p.hex() for p in transcript.v],
        "w": [p.hex() for p in transcript.w],
        "Z": [p.hex() for p in transcript.z],
        "sid": transcript.sid,
    }


def transcript_from_obj(obj: dict[str, Any]) -> Transcript:
    try:
        n = obj["n"]
        if type(n) is not int:  # not a float, a string or a bool
            raise TypeError(f"n must be an integer, not {n!r}")
        transcript = Transcript(
            platform=obj["platform"],
            n=n,
            v=tuple(bytes.fromhex(h) for h in obj["v"]),
            w=tuple(bytes.fromhex(h) for h in obj["w"]),
            z=tuple(bytes.fromhex(h) for h in obj["Z"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BdgaError(f"malformed transcript object: {exc}") from exc
    return transcript


def keys_to_obj(sid: str, sk: GroupElement) -> dict[str, Any]:
    return {"sid": sid, "sk": sk.hex()}


def meta_block(platform: GroupAction, seed: int) -> dict[str, Any]:
    return {
        "tool_version": __version__,
        "seed": seed,
        "platform_descriptor": platform.descriptor,
    }


def dump_json(obj: dict[str, Any], path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise BdgaError(f"cannot write {path}: {exc}") from exc


def load_json(path: str) -> dict[str, Any]:
    """Read a JSON file whose top level is an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BdgaError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise BdgaError(f"{path}: top level is not a JSON object")
    return obj
