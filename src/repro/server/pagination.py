"""Pagination for the estimate query API: envelope, cursors, sorting.

The response shape follows the article-index API surveyed in SNIPPETS
Snippet 3::

    {"items": [...],
     "page": {"total": 1234, "limit": 50, "offset": 0,
              "next_cursor": "3|17", "has_more": true}}

Items are the epoch log's ``(epoch, index)`` rows, one per estimate;
``epoch=`` keeps one epoch's.  Two pagination styles compose:

* **offset** — ``limit`` (default 50, silently clamped to the 200
  maximum) and ``offset`` skip into the sorted item list; an offset past
  the end is an empty page, not an error.
* **keyset cursor** — ``cursor={epoch}|{index}`` resumes *after* the
  named item, so a crawler never re-reads or skips rows when new epochs
  land between pages.  ``next_cursor`` in each response is the value to
  pass back; it is ``null`` on the last page.  Cursors are only
  meaningful under the canonical ``(epoch, index)`` ascending order, so
  combining ``cursor`` with a non-default ``sort`` is HTTP 400.

``sort`` takes comma-separated field names — ``field``/``field:asc``
ascending, ``-field``/``field:desc`` descending — over the item fields
``epoch``, ``index``, ``estimate``.  Unknown fields are HTTP 400 naming
``sort``, mirroring the exemplar.  A default-order page reads only the
``ceil(limit / d) + 1`` or fewer epochs it shows; a non-default ``sort``
must see every selected row, the one O(epochs x d) read.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .http import HttpError, Request

#: page size when ``limit`` is omitted
DEFAULT_LIMIT = 50

#: hard page-size ceiling; larger requests are clamped, not rejected
MAX_LIMIT = 200

#: item fields ``sort`` may name
SORT_FIELDS = ("epoch", "index", "estimate")

#: the canonical order — the only one keyset cursors are defined over
DEFAULT_SORT: Tuple[Tuple[str, bool], ...] = (
    ("epoch", True), ("index", True)
)


def parse_non_negative_int(request: Request, name: str, default: int) -> int:
    """One ``>= 0`` integer query parameter; HTTP 400 names the field."""
    text = request.param(name)
    if text is None:
        return default
    try:
        value = int(text)
        if value < 0:
            raise ValueError
    except ValueError:
        raise HttpError(
            400, f"must be a non-negative integer, got {text!r}", field=name
        ) from None
    return value


def parse_limit(request: Request) -> int:
    """``limit``: default 50, clamped to :data:`MAX_LIMIT`, 400 below 1."""
    text = request.param("limit")
    if text is None:
        return DEFAULT_LIMIT
    try:
        value = int(text)
        if value < 1:
            raise ValueError
    except ValueError:
        raise HttpError(
            400, f"must be a positive integer, got {text!r}", field="limit"
        ) from None
    return min(value, MAX_LIMIT)


def parse_sort(request: Request) -> Tuple[Tuple[str, bool], ...]:
    """The requested ordering as ``((field, ascending), ...)``.

    Accepts the Snippet-3 spellings: ``sort=-epoch``,
    ``sort=estimate:desc,index:asc``.  Unknown fields and directions are
    HTTP 400 naming ``sort``.
    """
    text = request.param("sort")
    if text is None:
        return DEFAULT_SORT
    keys: List[Tuple[str, bool]] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise HttpError(400, "empty sort field", field="sort")
        ascending = True
        if token.startswith("-"):
            ascending = False
            token = token[1:]
        field_name, separator, direction = token.partition(":")
        if separator:
            direction = direction.strip().lower()
            if direction == "desc":
                ascending = False
            elif direction != "asc":
                raise HttpError(
                    400,
                    f"unknown sort direction {direction!r}; use asc or desc",
                    field="sort",
                )
        field_name = field_name.strip()
        if field_name not in SORT_FIELDS:
            raise HttpError(
                400,
                f"unknown sort field {field_name!r}; sortable fields: "
                f"{', '.join(SORT_FIELDS)}",
                field="sort",
            )
        keys.append((field_name, ascending))
    return tuple(keys)


def parse_cursor(request: Request) -> Optional[Tuple[int, int]]:
    """The ``{epoch}|{index}`` keyset cursor; HTTP 400 when malformed."""
    text = request.param("cursor")
    if text is None:
        return None
    parts = text.split("|")
    if len(parts) != 2:
        raise HttpError(
            400,
            f"cursor must be '{{epoch}}|{{index}}', got {text!r}",
            field="cursor",
        )
    try:
        epoch, index = int(parts[0]), int(parts[1])
        if epoch < 0 or index < 0:
            raise ValueError
    except ValueError:
        raise HttpError(
            400,
            f"cursor must be '{{epoch}}|{{index}}' with non-negative "
            f"integers, got {text!r}",
            field="cursor",
        ) from None
    return epoch, index


def _sorted_items(
    items: Iterable[Dict], order: Tuple[Tuple[str, bool], ...]
) -> List[Dict]:
    """Apply a multi-field mixed-direction order via stable re-sorts."""
    result = list(items)
    for field_name, ascending in reversed(order):
        result.sort(key=lambda item: item[field_name], reverse=not ascending)
    return result


def paginate(
    request: Request,
    width: int,
    epochs: int,
    read: Callable[[int, int], list],
) -> dict:
    """Build the Snippet-3 envelope for one page of an epoch log.

    The log holds epochs ``0 .. epochs - 1`` of ``width`` estimates
    each, and ``read(first, count)`` returns the ``(epoch, estimates)``
    rows of epochs ``first .. first + count - 1``.  With a cursor,
    ``offset`` skips *additional* rows past the cursor position, and
    the reported ``page.offset`` is the absolute start position in the
    sorted list.
    """
    epoch = parse_non_negative_int(request, "epoch", -1)
    limit = parse_limit(request)
    offset = parse_non_negative_int(request, "offset", 0)
    order = parse_sort(request)
    cursor = parse_cursor(request)
    if cursor is not None and order != DEFAULT_SORT:
        raise HttpError(
            400,
            "keyset cursors are defined over the default (epoch, index) "
            "ascending order; drop the sort parameter to use a cursor",
            field="cursor",
        )
    # The selected epochs are [low, high): all of them, or the one
    # ``epoch=`` names (none past the end).  Positions are clamped to
    # them before any read, so a huge query value never reaches a store.
    if epoch < 0:
        low, high = 0, epochs
    else:
        low, high = min(epoch, epochs), min(epoch + 1, epochs)
    total = (high - low) * width
    start = offset
    if cursor is not None:
        # Keyset: resume strictly after (epoch, index) — a cursor past
        # the last epoch lands on the empty tail, which is a valid
        # (empty) page rather than an error.
        cursor_epoch, cursor_index = cursor
        start += (min(max(cursor_epoch, low), high) - low) * width
        if low <= cursor_epoch < high:
            start += min(cursor_index + 1, width)
    begin, end = min(start, total), min(start + limit, total)
    if order == DEFAULT_SORT:
        first, stop = low + begin // width, low + (end + width - 1) // width
    else:
        first, stop = low, high
    rows = read(first, stop - first) if stop > first else []
    items = (
        {"epoch": int(row_epoch), "index": index, "estimate": float(value)}
        for row_epoch, estimates in rows
        for index, value in enumerate(estimates)
    )
    if order != DEFAULT_SORT:
        items = _sorted_items(items, order)
    skip = begin - (first - low) * width
    page = list(itertools.islice(items, skip, skip + limit))
    has_more = start + limit < total
    next_cursor = None
    if has_more and page and order == DEFAULT_SORT:
        next_cursor = f"{page[-1]['epoch']}|{page[-1]['index']}"
    return {
        "items": page,
        "page": {
            "total": total,
            "limit": limit,
            "offset": start,
            "next_cursor": next_cursor,
            "has_more": has_more,
        },
    }
