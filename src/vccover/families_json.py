"""The JSON mirror of the family file format.

A family is ``{"n": <n>, "members": [[1, 2], [3, 4]]}``, the members in
canonical order with their elements ascending, spelled byte for byte as
``json.dumps`` spells it. This module is loaded only when a JSON family is
read or written, so no other command compiles it.

The reader takes the writer's spelling, with at most one final newline,
through the text reader's element table (``families._table_masks``), with
no ``json`` import and no list per member. Any other text, valid JSON in
another spelling or not JSON at all, goes to ``json.loads`` and the
member checks of the text format, which give every verdict and message.
"""

from __future__ import annotations

from .families import MAX_GROUND, FamilyFormatError, SetFamily, _append_member, _member_chunks, _table_masks

# The ground sizes as json.dumps spells them.
_GROUND = {str(n): n for n in range(1, MAX_GROUND + 1)}


def write_family_json(f: SetFamily) -> str:
    """Serialize to the JSON mirror format, byte for byte what ``json.dumps`` writes."""
    if not f.members:
        return '{"n": %d, "members": []}' % f.n
    return '{"n": %d, "members": [[%s]]}' % (f.n, "], [".join(_member_chunks(f, ", ", "", "], [")))


def read_family_json(text: str) -> SetFamily:
    """Parse the JSON mirror, enforcing the same ordering rules as the text form."""
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
