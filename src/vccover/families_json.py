"""The JSON mirror of the family file format.

A family is ``{"n": <n>, "members": [[1, 2], [3, 4]]}``, the members in
canonical order with their elements ascending, spelled byte for byte as
``json.dumps`` spells it. This module is loaded only when a JSON family is
read or written, so no other command compiles it, and a command that only
writes one does not load the text reader either.

The reader takes the writer's spelling, with at most one final newline,
through the text reader's element table (``reader._table_masks``), with
no ``json`` import and no list per member. Any other text, valid JSON in
another spelling or not JSON at all, goes to ``json.loads`` and the
member checks of the text format, which give every verdict and message.
"""

from __future__ import annotations

from typing import Iterator

from .bitsets import MAX_GROUND
from .families import FamilyFormatError, SetFamily, _member_chunks

# The ground sizes as json.dumps spells them.
_GROUND = {str(n): n for n in range(1, MAX_GROUND + 1)}


def json_pieces(f: SetFamily) -> Iterator[str]:
    """``write_family_json``'s text in pieces: the opening, then each run of
    256 members with the separator before it, then the closing, so a caller
    can write it without the whole."""
    if not f.members:
        yield '{"n": %d, "members": []}' % f.n
        return
    opening = '{"n": %d, "members": [[' % f.n
    for chunk in _member_chunks(f, ", ", "", "], ["):
        yield opening
        yield chunk
        opening = "], ["
    yield "]]}"


def write_family_json(f: SetFamily) -> str:
    """Serialize to the JSON mirror format, byte for byte what ``json.dumps`` writes."""
    return "".join(json_pieces(f))


def read_family_json(text: str) -> SetFamily:
    """Parse the JSON mirror, enforcing the same ordering rules as the text form."""
    from .reader import _table_masks

    at = text.find(', "members": [[')
    n = _GROUND.get(text[6:at]) if at > 6 and text.startswith('{"n": ') else None
    stop = len(text) - text.endswith("\n") - 3  # where the closing "]]}" must start
    if n and text.startswith("]]}", stop):
        masks = _table_masks(text, at + 15, stop, n, "], [", ", ")
        if masks is not None:
            return SetFamily(n, masks)
    return _loaded_family(text)


def _loaded_family(text: str) -> SetFamily:
    """Any JSON text, read by ``json.loads`` and checked member by member."""
    import json

    from .reader import _append_member

    # json.loads raises RecursionError on arrays nested about 1,000 deep.
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FamilyFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or set(obj) != {"n", "members"}:
        raise FamilyFormatError("JSON family must be an object with keys 'n' and 'members'")
    n = obj["n"]
    # bool is a subclass of int, so the checks compare exact types.
    if type(n) is not int or n < 1 or n > MAX_GROUND:
        raise FamilyFormatError(f"bad ground size {n!r}")
    if type(obj["members"]) is not list:
        raise FamilyFormatError("JSON family 'members' must be a list")
    masks: list[int] = []
    for member in obj["members"]:
        if type(member) is not list or not all(type(e) is int for e in member):
            raise FamilyFormatError(f"bad member {member!r}")
        _append_member(masks, member, n, member)
    return SetFamily(n, tuple(masks))
