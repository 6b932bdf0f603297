"""A JSON object read from a file one member, and one array item, at a time.

Group and irrep files are untrusted.  json.loads would build the whole
document before any field is checked, so refusing a file would cost time
and memory in proportion to its size.  read_object walks the top-level
object with json's own pieces instead: json.detect_encoding picks the
codec from the first bytes, the text is decoded a chunk at a time as far
as the walk has reached, and JSONDecoder.raw_decode (json.decoder's C
scanner, scanstring for strings) decodes each key and value.  The value
of a streamed member that is an array comes as an iterator over its
items, each decoded when it is taken, so a caller that refuses at an item
never decodes, or reads much past, what follows it; a malformed item is
refused where it fails.  Every other member, and each array item, is
decoded whole, so an unterminated string is read to the end of the file.

The grammar is the one json.loads reads: the same whitespace, NaN and
Infinity, strict strings, and malformed input raises ValueError.  One
rule is tighter: a key repeated in the top-level object is refused, where
json.loads keeps the last value.  A value nested too deeply for the
decoder raises ValueError too.
"""

from __future__ import annotations

import codecs
import json
from collections import deque
from json.decoder import WHITESPACE, JSONDecodeError
from types import GeneratorType

CHUNK = 1 << 16  # bytes read at a time; an item longer than this doubles the read

_decoder = json.JSONDecoder()
_decode, _scan = _decoder.raw_decode, _decoder.scan_once
_skip = WHITESPACE.match
_SPACE = " \t\n\r"  # what WHITESPACE matches
_NUMBER_GOES_ON = ".eE"  # after a number cut short; never after a whole value in valid JSON
_CUT_TOKEN = len("-Infinity")  # the longest token whose cut-off prefix fails where it starts


class _Reader:
    """The text of a file, decoded as far as the walk needs it, and a
    position in it.  Text before the position is dropped as more is read."""

    def __init__(self, fh):
        self.fh = fh
        size = max(CHUNK, 4)  # json.detect_encoding reads up to four bytes
        head = fh.read(size)
        encoding = json.detect_encoding(head)
        self.pos = 0
        self.eof = len(head) < size  # a buffered file reads short only at its end
        if self.eof:
            self.text = head.decode(encoding, "surrogatepass")
        else:
            self.decoder = codecs.getincrementaldecoder(encoding)("surrogatepass")
            self.text = self.decoder.decode(head)

    def _more(self):
        size = max(CHUNK, len(self.text) - self.pos)
        data = self.fh.read(size)
        self.eof = len(data) < size
        self.text = self.text[self.pos:] + self.decoder.decode(data, final=self.eof)
        self.pos = 0

    def char(self):
        """The next character that is not whitespace, left unconsumed; ""
        at the end of the file."""
        text, pos = self.text, self.pos
        if pos < len(text) and text[pos] not in _SPACE:
            return text[pos]
        while True:
            self.pos = _skip(self.text, self.pos).end()
            if self.pos < len(self.text):
                return self.text[self.pos]
            if self.eof:
                return ""
            self._more()

    def value(self):
        """Decode the next value.  A value may be cut off by the end of the
        text read so far when it ends there or before one of ".eE" (a
        number cut short), or when it fails in an unterminated string or
        within the last few characters; it is then decoded again with more
        text, until the file ends.  Any other failure is final."""
        self.char()
        while True:
            try:
                value, end = _decode(self.text, self.pos)
            except JSONDecodeError as exc:
                if self.eof or (exc.pos + _CUT_TOKEN < len(self.text)
                                and not exc.msg.startswith("Unterminated string")):
                    raise
            except RecursionError:
                raise ValueError("JSON nested too deeply") from None
            else:
                if self.eof or end < len(self.text) and self.text[end] not in _NUMBER_GOES_ON:
                    self.pos = end
                    return value
            self._more()

    def expect(self, chars, message):
        """Consume the next non-whitespace character, one of chars."""
        c = self.char()
        if not c or c not in chars:
            raise JSONDecodeError(message, self.text, self.pos)
        self.pos += 1
        return c

    def items(self):
        """The items of the array whose "[" was just consumed, one per
        next(); the delimiter after an item is read only when the next one
        is asked for.  An item that json's scanner decodes where it stands
        and that value() would take as whole is taken as it is; any other
        (whitespace before it, cut off, malformed) goes through value()."""
        if self.char() == "]":
            self.pos += 1
            return
        text, pos = self.text, self.pos
        while True:
            try:
                item, end = _scan(text, pos)
                after = text[end]
            except (StopIteration, JSONDecodeError, RecursionError, IndexError):
                after = None
            if after is None or after in _NUMBER_GOES_ON:
                self.pos = pos
                item = self.value()
                text, end = self.text, self.pos
                after = text[end:end + 1]
            yield item
            if after == ",":
                pos = end + 1
                continue
            self.pos = end
            if self.expect(",]", "Expecting ',' delimiter") == "]":
                return
            text, pos = self.text, self.pos


def read_object(fh, streamed, not_an_object):
    """Yield (key, value) for each member of the JSON object in the binary
    file fh, in file order.  For a key in `streamed` whose value is an
    array, the value is an iterator over its items, decoded as they are
    taken; what the caller leaves of it is decoded before the next member.
    Raises ValueError(not_an_object) when the document is not an object."""
    reader = _Reader(fh)
    if reader.char() != "{":
        raise ValueError(not_an_object)
    reader.pos += 1
    seen = set()
    if reader.char() == "}":
        reader.pos += 1
    else:
        while True:
            if reader.char() != '"':
                raise JSONDecodeError("Expecting property name enclosed in double quotes",
                                      reader.text, reader.pos)
            key = reader.value()
            if key in seen:
                raise ValueError(f"key {key!r} repeated in the top-level object")
            seen.add(key)
            reader.expect(":", "Expecting ':' delimiter")
            if key in streamed and reader.char() == "[":
                reader.pos += 1
                items = reader.items()
                yield key, items
                deque(items, maxlen=0)
            else:
                yield key, reader.value()
            if reader.expect(",}", "Expecting ',' delimiter") == "}":
                break
    if reader.char():
        raise JSONDecodeError("Extra data", reader.text, reader.pos)


def array_items(value):
    """An iterator over a JSON array's items, whether decoded (a list) or
    streamed by read_object; None for any other value."""
    if isinstance(value, list):
        return iter(value)
    return value if isinstance(value, GeneratorType) else None
