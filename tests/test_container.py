import random

import pytest
from hypothesis import given, settings, strategies as st

import cryptompress as cm
from cryptompress import container
from cryptompress.cipher import ASM, EMPTY, N_CELLS, RM, SM, TM, CipherGrid, check_tags
from cryptompress.errors import (
    BadMagic,
    BadVersion,
    ContainerError,
    IntegrityFailure,
    InventoryMismatch,
    MalformedCell,
    Truncated,
    ValueOutOfRange,
)
from cryptompress.keyschedule import KeyChain, extend_key
from test_cipher import random_chain
from test_parse_verdicts import draw_mutation, mutate


def valid_tails(nblocks):
    """The tail-bit counts with which `nblocks` blocks end on a whole byte."""
    return [t for t in range(1, 31) if (30 * (nblocks - 1) + t) % 8 == 0]


def random_message(rng, chain, nblocks=3):
    grids = tuple(cm.encrypt_block(rng.getrandbits(30), chain) for _ in range(nblocks))
    return container.CipherMessage(grids=grids, tail_bits=rng.choice(valid_tails(nblocks)))


def test_golden_key_file_bytes(golden, golden_chain):
    data = container.write_key(golden_chain)
    assert len(data) == 21
    assert data.hex() == golden["key_file_hex"]
    assert data[:4] == b"CMK1"
    assert data[4] == 0
    assert data[5:21] == bytes.fromhex(golden["key_hex"])


def test_key_round_trip_1000():
    rng = random.Random(21)
    for _ in range(1000):
        chain = random_chain(rng, rng.randrange(0, 4))
        assert container.read_key(container.write_key(chain)) == chain


def test_key_file_length_follows_sticky_count():
    rng = random.Random(22)
    chain = random_chain(rng)
    for k in range(1, 9):
        chain = extend_key(chain, rng)
        assert len(container.write_key(chain)) == 21 + 4 * k


def test_write_key_refuses_256_sticky_words(golden_chain):
    with pytest.raises(ValueOutOfRange, match="255"):
        container.write_key(golden_chain._replace(sticky=(0,) * 256))


def test_grid_cells_are_held_in_wire_order():
    """A grid's cells are the wire's row-major cells: write_cipher encodes
    them in order after each block's two order bytes, read_cipher returns
    them as they came, and rows() slices them five at a time."""
    from cryptompress.container import HEADER_BYTES, _encode_cell

    rng = random.Random(26)
    for depth in range(4):
        for _ in range(25):
            msg = random_message(rng, random_chain(rng, depth), nblocks=rng.randrange(1, 4))
            data = container.write_cipher(msg)
            pos = HEADER_BYTES
            for grid in msg.grids:
                body = b"".join(_encode_cell(c) for c in grid.cells)
                assert data[pos + 2 : pos + 2 + len(body)] == body
                pos += 2 + len(body)
                for r in range(4):
                    assert grid.rows()[r] == list(grid.cells[5 * r : 5 * r + 5])
            assert pos == len(data)
            assert container.read_cipher(data).grids == msg.grids


def test_cipher_round_trip_1000():
    rng = random.Random(23)
    for _ in range(1000):
        chain = random_chain(rng, rng.randrange(0, 3))
        msg = random_message(rng, chain, nblocks=rng.randrange(1, 4))
        assert container.read_cipher(container.write_cipher(msg)) == msg


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=16, max_size=16), st.sampled_from(valid_tails(1)), st.integers(0, 2**30 - 1))
def test_cipher_round_trip_property(raw, tail_bits, block):
    chain = KeyChain(base=cm.BaseKey.from_bytes(raw))
    msg = container.CipherMessage(grids=(cm.encrypt_block(block, chain),), tail_bits=tail_bits)
    assert container.read_cipher(container.write_cipher(msg)) == msg


def test_key_truncation_sweep(golden_chain):
    rng = random.Random(24)
    chain = extend_key(extend_key(golden_chain, rng), rng)
    data = container.write_key(chain)
    for cut in range(len(data)):
        with pytest.raises(ContainerError):
            container.read_key(data[:cut])


def test_cipher_truncation_sweep(golden_chain, golden_block):
    msg = container.CipherMessage(
        grids=(cm.encrypt_block(golden_block, golden_chain),) * 2, tail_bits=26
    )
    data = container.write_cipher(msg)
    for cut in range(len(data)):
        with pytest.raises(ContainerError):
            container.read_cipher(data[:cut])


def test_bad_magic():
    with pytest.raises(BadMagic):
        container.read_key(b"XXXX" + bytes(17))
    with pytest.raises(BadMagic):
        container.read_cipher(b"XXXX" + bytes(20))


def test_bad_version(golden_chain, golden_block):
    msg = container.CipherMessage(grids=(cm.encrypt_block(golden_block, golden_chain),), tail_bits=24)
    data = bytearray(container.write_cipher(msg))
    data[4] = 2
    with pytest.raises(BadVersion):
        container.read_cipher(bytes(data))


def test_trailing_bytes_rejected(golden_chain, golden_block):
    key_data = container.write_key(golden_chain)
    with pytest.raises(MalformedCell):
        container.read_key(key_data + b"\x00")
    msg = container.CipherMessage(grids=(cm.encrypt_block(golden_block, golden_chain),), tail_bits=24)
    with pytest.raises(MalformedCell):
        container.read_cipher(container.write_cipher(msg) + b"\x00")


def test_unknown_cell_tag_rejected(golden_chain, golden_block):
    msg = container.CipherMessage(grids=(cm.encrypt_block(golden_block, golden_chain),), tail_bits=24)
    data = bytearray(container.write_cipher(msg))
    # first cell tag sits right after header (11 bytes) + packed orders (2)
    assert data[13] in range(5)
    data[13] = 99
    with pytest.raises(MalformedCell):
        container.read_cipher(bytes(data))


def test_inventory_mismatch(golden_chain, golden_block):
    grid = cm.encrypt_block(golden_block, golden_chain)
    # overwrite one matrix-string cell with an extra empty
    idx = next(i for i, c in enumerate(grid.cells) if c[0] != EMPTY)
    cells = list(grid.cells)
    cells[idx] = (EMPTY,)
    bad = container.CipherMessage(
        grids=(cm.CipherGrid(orders=grid.orders, cells=tuple(cells), sticky_rounds=0),),
        tail_bits=24,
    )
    data = _encode_without_checks(bad)
    with pytest.raises(InventoryMismatch):
        container.read_cipher(data)


def _encode_without_checks(msg):
    """Serialize a (possibly invalid) message for parser tests."""
    import struct

    from cryptompress.container import _encode_cell

    out = bytearray(b"CMC1")
    out.append(1)
    out.append(msg.grids[0].sticky_rounds)
    out += struct.pack(">I", len(msg.grids))
    out.append(msg.tail_bits)
    for grid in msg.grids:
        o = grid.orders
        out.append((o[0] << 4) | o[1])
        out.append((o[2] << 4) | o[3])
        for cell in grid.cells:
            out += _encode_cell(cell)
    return bytes(out)


def _one_shot(grids):
    """The grids as a generator, which write_cipher can read only once."""
    return (grid for grid in grids)


def _refusal(write):
    """The (class, message) that `write(form)` raises for both forms of a
    message's grids that write_cipher takes: a tuple and a one-shot generator."""
    outcomes = set()
    for form in (tuple, _one_shot):
        with pytest.raises(Exception) as raised:
            write(form)
        outcomes.add((raised.type, str(raised.value)))
    assert len(outcomes) == 1, outcomes
    return outcomes.pop()


def _sparse_bytes(rng, n):
    """`n` bytes, each nonzero with probability 1/8: most blocks repeat."""
    return bytes(rng.randrange(1, 256) if rng.random() < 1 / 8 else 0 for _ in range(n))


def test_write_cipher_writes_streamed_grids_as_it_writes_a_tuple(monkeypatch):
    """write_cipher over a one-shot generator of encrypt_block grids writes
    the tuple form's bytes, and both equal a plain cell-by-cell encoding:
    seeded uniform and sparse payloads at sticky depths 0-8, then a 16 KiB
    uniform payload whose distinct cells outnumber the cell memo's bound,
    so the memo is cleared and refilled on the way."""
    rng = random.Random(31)
    cases = [(random_chain(rng, d), make(rng, 400)) for d in range(9) for make in (random.Random.randbytes, _sparse_bytes)]
    cases.append((random_chain(rng, 0), rng.randbytes(16 * 1024)))
    checked = []
    encode = container._encode_checked
    monkeypatch.setattr(container, "_encode_checked", lambda cell: checked.append(cell) or encode(cell))
    for chain, payload in cases:
        msg = cm.segment_message(payload)
        whole = container.CipherMessage(tuple(cm.encrypt_block(b, chain) for b in msg.blocks), msg.tail_bits)
        checked.clear()
        streamed = container.write_cipher(whole._replace(grids=(cm.encrypt_block(b, chain) for b in msg.blocks)))
        assert streamed == container.write_cipher(whole) == _encode_without_checks(whole)
    distinct = len({cell for grid in whole.grids for cell in grid.cells})
    assert len(checked) > distinct > container.CELL_MEMO_MAX


def test_write_cipher_stops_at_the_first_faulty_grid_and_checks_whole_bytes_last(golden_chain, golden_block):
    """The writer refuses a grid as it arrives and draws no later grid; the
    whole-byte tail check needs the block count, so a grid's fault
    outranks it."""
    grid = cm.encrypt_block(golden_block, golden_chain)
    drawn = []

    def grids(*stream):
        for g in stream:
            drawn.append(g)
            yield g

    with pytest.raises(ValueOutOfRange, match="disagree"):
        container.write_cipher(container.CipherMessage(grids(grid, grid._replace(sticky_rounds=1), grid), 26))
    assert len(drawn) == 2
    with pytest.raises(MalformedCell, match="2 blocks with 24 tail bits"):
        container.write_cipher(container.CipherMessage(grids(grid, grid), 24))
    with pytest.raises(ValueOutOfRange, match="not four nibbles"):
        container.write_cipher(container.CipherMessage(grids(grid, grid._replace(orders=(16, 0, 0, 0))), 24))


def test_write_cipher_rejects_mixed_rounds(golden_chain, golden_block):
    rng = random.Random(25)
    g0 = cm.encrypt_block(golden_block, golden_chain)
    chain1 = extend_key(golden_chain, rng)
    g1 = cm.encrypt_block(golden_block, chain1)
    with pytest.raises(ValueOutOfRange, match="disagree"):
        container.write_cipher(container.CipherMessage(grids=(g0, g1), tail_bits=26))


@pytest.mark.parametrize(
    "bad", [(ASM, 7, 0), (ASM, 2, 200), (TM, 9, 3), (SM, ((16, 1),))], ids=["asm_x", "asm_mask", "tm", "sm_pair"]
)
def test_write_cipher_refuses_cells_the_reader_refuses(golden_chain, golden_block, bad):
    """A cell that fits its wire record but not its field limits is refused
    by write_cipher with the MalformedCell that read_cipher raises for the
    same bytes."""
    grid = cm.encrypt_block(golden_block, golden_chain)
    cells = list(grid.cells)
    cells[next(i for i, c in enumerate(cells) if c[0] == bad[0])] = bad
    msg = container.CipherMessage(grids=(grid._replace(cells=tuple(cells)),), tail_bits=24)
    written = _refusal(lambda form: container.write_cipher(msg._replace(grids=form(msg.grids))))
    assert written[0] is MalformedCell
    assert _outcome(container.read_cipher, _encode_without_checks(msg)) == written


def test_write_cipher_refuses_a_message_of_no_blocks():
    # 6 tail bits would pass the tail check, so only the block check refuses
    refused = _refusal(lambda form: container.write_cipher(container.CipherMessage(form(()), tail_bits=6)))
    assert refused == (MalformedCell, "a cipher file needs at least one block")


def test_write_cipher_refuses_a_256_pair_sequence_list(golden_chain, golden_block):
    grid = _redraw(cm.encrypt_block(golden_block, golden_chain), SM, lambda: ((1, 2),) * 256)
    with pytest.raises(MalformedCell, match="sequence list longer than 255 pairs"):
        container.write_cipher(container.CipherMessage(grids=(grid,), tail_bits=24))


def _write_edited(edit):
    """Write a one-block message of the grid after `edit(grid)`, its grids in `form`."""
    return lambda grid, chain, form: container.write_cipher(container.CipherMessage(form((edit(grid),)), 24))


def _first_of(tag, cell):
    """Replace the grid's first cell of kind `tag` with `cell`."""
    def edit(grid):
        cells = list(grid.cells)
        cells[next(i for i, c in enumerate(cells) if c[0] == tag)] = cell
        return grid._replace(cells=tuple(cells))
    return edit


# Each writes what the reader would refuse or read back as another value.
WRITER_REFUSALS = {
    "order_16": (_write_edited(lambda g: g._replace(orders=(0, 16, 0, 0))), ValueOutOfRange),
    "order_negative": (_write_edited(lambda g: g._replace(orders=(-1, 0, 0, 0))), ValueOutOfRange),
    "rounds_negative": (_write_edited(lambda g: g._replace(sticky_rounds=-1)), ValueOutOfRange),
    "19_cells": (_write_edited(lambda g: g._replace(cells=g.cells[:19])), InventoryMismatch),
    "20_empty_cells": (_write_edited(lambda g: g._replace(cells=((EMPTY,),) * 20)), InventoryMismatch),
    "sm_stray_byte": (_write_edited(_first_of(SM, (SM, ((1, 2, 3),)))), MalformedCell),
    "sm_short_pair": (_write_edited(_first_of(SM, (SM, ((1,),)))), MalformedCell),
    "sm_list_of_pairs": (_write_edited(_first_of(SM, (SM, [(1, 2)]))), MalformedCell),
    "orders_list": (_write_edited(lambda g: g._replace(orders=list(g.orders))), ValueOutOfRange),
    "cells_list": (_write_edited(lambda g: g._replace(cells=list(g.cells))), MalformedCell),
    "unknown_tag": (_write_edited(_first_of(TM, (9,))), MalformedCell),
    "short_asm": (_write_edited(_first_of(ASM, (ASM, 1))), MalformedCell),
    "rm_over_int32": (_write_edited(_first_of(RM, (RM, 2**40))), MalformedCell),
    "sticky_word_33_bits": (
        lambda grid, chain, form: container.write_key(chain._replace(sticky=(2**32,))),
        ValueOutOfRange,
    ),
    "base_word_49_bits": (
        lambda grid, chain, form: container.write_key(chain._replace(base=chain.base._replace(asm_key=2**48))),
        ValueOutOfRange,
    ),
}


@pytest.mark.parametrize("case", WRITER_REFUSALS)
def test_writers_refuse_what_the_reader_cannot_read_back(golden_chain, golden_block, case):
    write, exc = WRITER_REFUSALS[case]
    grid = cm.encrypt_block(golden_block, golden_chain)
    assert _refusal(lambda form: write(grid, golden_chain, form))[0] is exc


# A value equal to an int but of another type passes a range or set test;
# each writer refuses it with the class of its field's range check, as
# _encode_checked does for a cell.
@pytest.mark.parametrize("orders", [(5.0, 1, 2, 3), (5, 1, 2, 3.0), (5, 1, 2, "3"), None])
def test_write_cipher_refuses_order_nibbles_that_are_not_ints(golden_chain, golden_block, orders):
    grid = cm.encrypt_block(golden_block, golden_chain)._replace(orders=orders)
    exc, message = _refusal(lambda form: container.write_cipher(container.CipherMessage(form((grid,)), 24)))
    assert exc is ValueOutOfRange and "not four nibbles" in message


@pytest.mark.parametrize("tail_bits", [24.0, "24", None])
def test_write_cipher_refuses_tail_bits_that_are_not_an_int(golden_chain, golden_block, tail_bits):
    grid = cm.encrypt_block(golden_block, golden_chain)
    exc, message = _refusal(lambda form: container.write_cipher(container.CipherMessage(form((grid,)), tail_bits)))
    assert exc is MalformedCell and "tail_bits" in message


@pytest.mark.parametrize("convert", [float, str])
def test_write_cipher_refuses_sticky_rounds_that_are_not_an_int(golden_chain, golden_block, convert):
    grid = cm.encrypt_block(golden_block, golden_chain)
    grid = grid._replace(sticky_rounds=convert(grid.sticky_rounds))
    exc, message = _refusal(lambda form: container.write_cipher(container.CipherMessage(form((grid,)), 24)))
    assert exc is ValueOutOfRange and "sticky rounds" in message


@pytest.mark.parametrize("value", [1.0, "1", None])
@pytest.mark.parametrize("field", ["asm_key", "rm_key", "tm_key", "sm_key", "sticky"])
def test_write_key_refuses_key_words_that_are_not_ints(golden_chain, field, value):
    if field == "sticky":
        chain = golden_chain._replace(sticky=(7, value))
    else:
        chain = golden_chain._replace(base=golden_chain.base._replace(**{field: value}))
    with pytest.raises(ValueOutOfRange, match="key word"):
        container.write_key(chain)


def test_sticky_rounds_survive_serialization(golden_chain, golden_block):
    rng = random.Random(26)
    chain = extend_key(extend_key(golden_chain, rng), rng)
    msg = container.CipherMessage(grids=(cm.encrypt_block(golden_block, chain),), tail_bits=24)
    back = container.read_cipher(container.write_cipher(msg))
    assert back.sticky_rounds == 2
    assert back.grids[0].sticky_rounds == 2


def test_zero_block_count_rejected():
    data = b"CMC1" + bytes([1, 0]) + bytes(4) + bytes([30])
    with pytest.raises(MalformedCell):
        container.read_cipher(data)


# What read_header raises on each 0- to 10-byte prefix of a valid header.
_SHORT_HEADERS = [
    *[f"Truncated: need 4 bytes at offset 0, only {n} left" for n in range(4)],
    "Truncated: need 1 bytes at offset 4, only 0 left",
    *[f"Truncated: need 5 bytes at offset 5, only {n} left" for n in range(5)],
    "Truncated: need 1 bytes at offset 10, only 0 left",
]
# Each header field valid, then each invalid in turn: the 11-byte header and
# what read_header gives each of its prefixes of 0 to 11 bytes.
_HEADERS = {
    "valid": (b"CMC1\x01\x02\x00\x00\x00\x01\x08", _SHORT_HEADERS + [(2, 1, 8)]),
    "bad_magic": (
        b"CMC2\x01\x02\x00\x00\x00\x01\x08",
        _SHORT_HEADERS[:4] + ["BadMagic: expected b'CMC1', got b'CMC2'"] * 8,
    ),
    "bad_version": (
        b"CMC1\x02\x02\x00\x00\x00\x01\x08",
        _SHORT_HEADERS[:5] + ["BadVersion: unsupported cipher file version 2"] * 7,
    ),
    "zero_blocks": (
        b"CMC1\x01\x02\x00\x00\x00\x00\x08",
        _SHORT_HEADERS[:10] + ["MalformedCell: cipher file declares zero blocks"] * 2,
    ),
    "tail_out_of_range": (
        b"CMC1\x01\x02\x00\x00\x00\x01\x1f",
        _SHORT_HEADERS + ["MalformedCell: tail_bits must be in [1,30], got 31"],
    ),
    "tail_not_whole_bytes": (
        b"CMC1\x01\x02\x00\x00\x00\x01\x07",
        _SHORT_HEADERS + ["MalformedCell: 1 blocks with 7 tail bits are not whole bytes"],
    ),
}


@pytest.mark.parametrize("name", _HEADERS)
def test_read_header_at_every_length_pins_its_class_and_message(name):
    """Every prefix of 0 to 11 bytes of a header, with each field valid and
    invalid in turn: the exact error class and message, or the fields. A
    5-byte file with a bad version is a BadVersion and a 10-byte one that
    declares zero blocks a MalformedCell, not a Truncated."""
    header, expected = _HEADERS[name]
    got = []
    for n in range(len(header) + 1):
        try:
            got.append(container.read_header(header[:n]))
        except ContainerError as exc:
            got.append(f"{type(exc).__name__}: {exc}")
    assert got == expected


def test_header_accepts_exactly_the_tails_of_byte_payloads(golden_chain, golden_block):
    """read_header takes (count, tail_bits) only when 30*(count - 1) +
    tail_bits is whole bytes, which is every pair a byte payload yields and
    nothing else; any other tail is a MalformedCell. write_cipher writes
    exactly the same pairs and refuses the rest with the same error."""
    produced = {(len(m.blocks), m.tail_bits) for m in map(cm.segment_message, map(bytes, range(1, 31)))}
    grid = cm.encrypt_block(golden_block, golden_chain)
    accepted, written = set(), set()
    for count in range(1, 9):
        for tail in range(1, 31):
            header = b"CMC1" + bytes([1, 0]) + count.to_bytes(4, "big") + bytes([tail])
            try:
                assert container.read_header(header) == (0, count, tail)
                accepted.add((count, tail))
            except MalformedCell:
                pass
            try:
                data = container.write_cipher(container.CipherMessage((grid,) * count, tail))
                assert data[:11] == header
                written.add((count, tail))
            except MalformedCell:
                pass
    assert accepted == written == produced


def test_byte_flip_fuzz_never_crashes(golden_chain, golden_block):
    """Any single byte corruption parses to a typed error or a value."""
    msg = container.CipherMessage(grids=(cm.encrypt_block(golden_block, golden_chain),), tail_bits=24)
    data = container.write_cipher(msg)
    rng = random.Random(27)
    for _ in range(300):
        i = rng.randrange(len(data))
        mutated = bytearray(data)
        mutated[i] ^= 1 << rng.randrange(8)
        try:
            container.read_cipher(bytes(mutated))
        except ContainerError:
            pass


def test_random_garbage_never_crashes():
    rng = random.Random(28)
    for _ in range(300):
        blob = rng.randbytes(rng.randrange(0, 2048))
        for reader in (container.read_key, container.read_cipher):
            try:
                reader(blob)
            except ContainerError:
                pass
    # headers promising huge bodies must fail on truncation, not allocate
    huge = b"CMC1" + bytes([1, 0]) + (0xFFFFFFFF).to_bytes(4, "big") + bytes([30])
    with pytest.raises(ContainerError):
        container.read_cipher(huge)


def diagnose_cipher(data):
    """Reference parser: the cell-by-cell loop read_cipher replaced, which
    decodes every cell from scratch with no memo."""
    rounds, block_count, tail_bits = container.read_header(data)
    pos = container.HEADER_BYTES
    grids = []
    for _ in range(block_count):
        if pos + 2 > len(data):
            raise container._truncated(data, pos, 2)
        a, b = data[pos], data[pos + 1]
        pos += 2
        cells = []
        for _ in range(N_CELLS):
            cell, pos = container._decode_cell(data, pos)
            cells.append(cell)
        check_tags(tuple(cell[0] for cell in cells))
        grids.append(CipherGrid((a >> 4, a & 15, b >> 4, b & 15), tuple(cells), rounds))
    if pos != len(data):
        raise MalformedCell(f"{len(data) - pos} trailing bytes after last block")
    return container.CipherMessage(grids=tuple(grids), tail_bits=tail_bits)


def _outcome(parse, data):
    try:
        return parse(data)
    except ContainerError as exc:
        return type(exc), str(exc)


def _pairs(rng, count):
    return tuple((rng.randrange(16), rng.randrange(16)) for _ in range(count))


def _redraw(grid, tag, draw):
    """`grid` with each cell of kind `tag` replaced by (tag, draw())."""
    return grid._replace(cells=tuple((tag, draw()) if c[0] == tag else c for c in grid.cells))


@pytest.fixture(scope="module")
def valid_files():
    """Seeded valid cipher files: random messages at sticky depths 0-3,
    one whose SM lists run to 16-255 pairs, and one of 4,000 blocks whose
    RM and SM cells are nearly all distinct."""
    rng = random.Random(29)
    messages = []
    for depth in range(4):
        for _ in range(10):
            messages.append(random_message(rng, random_chain(rng, depth), nblocks=rng.randrange(1, 7)))
    chain = random_chain(rng, 1)
    grids = [cm.encrypt_block(rng.getrandbits(30), chain) for _ in range(64)]
    long_lists = tuple(_redraw(g, SM, lambda: _pairs(rng, rng.randrange(16, 256))) for g in grids[:8])
    messages.append(container.CipherMessage(long_lists, 30))
    fresh = (_redraw(grids[i % 64], RM, lambda: rng.getrandbits(31)) for i in range(4000))
    fresh = tuple(_redraw(g, SM, lambda: _pairs(rng, 3)) for g in fresh)
    messages.append(container.CipherMessage(fresh, 30))
    return [container.write_cipher(msg) for msg in messages]


def test_fast_walk_parses_valid_files_as_the_diagnoser_does(valid_files):
    assert max(len(c[1]) for c in container.read_cipher(valid_files[-2]).grids[0].cells if c[0] == SM) > 15
    for data in valid_files:
        assert container.read_cipher(data) == diagnose_cipher(data)


def test_cell_memo_keeps_no_long_sequence_lists(valid_files):
    """The cell memo lives for one call: reading the file of long SM lists,
    or the 4,000-block file of tens of thousands of distinct cells, leaves
    no more than a few KiB allocated once the result is dropped."""
    import gc
    import tracemalloc

    for data in valid_files[-2:]:
        tracemalloc.start()
        try:
            msg = container.read_cipher(data)
            del msg
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 16 * 1024, (len(data), retained)


def test_fast_walk_fails_as_the_diagnoser_does(valid_files):
    """Seeded mutations of small valid files: read_cipher and the diagnoser
    return equal messages or raise the same error with the same message."""
    rng = random.Random(30)
    for _ in range(1500):
        data = rng.choice(valid_files[:40])
        data = mutate(data, *draw_mutation(rng, len(data)))
        assert _outcome(container.read_cipher, data) == _outcome(diagnose_cipher, data)


def _read_counting_decodes(monkeypatch, data):
    """read_cipher's outcome on `data` and how many times it called _decode_cell."""
    calls = []
    decode = container._decode_cell

    def counting(*args):
        calls.append(args)
        return decode(*args)

    with monkeypatch.context() as m:
        m.setattr(container, "_decode_cell", counting)
        outcome = _outcome(container.read_cipher, data)
    return outcome, len(calls)


def test_each_missed_cell_reaches_the_decoder_once(golden_chain, golden_block, monkeypatch):
    """A valid file is decoded once per distinct cell; a bad cell in its
    second block, never seen before, is decoded once and raises what the
    diagnoser raises, offsets included."""
    grid = cm.encrypt_block(golden_block, golden_chain)
    msg = container.CipherMessage((grid, grid), 26)
    data = container.write_cipher(msg)
    distinct = len(set(grid.cells))
    assert _read_counting_decodes(monkeypatch, data) == (msg, distinct)
    # each cell's offset in the second block
    pos = container.HEADER_BYTES + 2 + (len(data) - container.HEADER_BYTES) // 2
    offsets = {}
    for cell in grid.cells:
        offsets.setdefault(cell[0], []).append(pos)
        pos += len(container._encode_cell(cell))
    asm = offsets[ASM][0]
    bad_x_pos = data[: asm + 1] + bytes([7]) + data[asm + 2 :]
    sm = max(p for p in offsets[SM] if data[p + 1])
    cut_sm = data[: sm + 3]
    expected = {
        bad_x_pos: (MalformedCell, f"asm cell payload (7, {data[asm + 2]}) out of range"),
        cut_sm: (Truncated, f"need {2 * data[sm + 1]} bytes at offset {sm + 2}, only 1 left"),
    }
    for bad, outcome in expected.items():
        assert _outcome(diagnose_cipher, bad) == outcome
        assert _read_counting_decodes(monkeypatch, bad) == (outcome, distinct + 1)


def _keep(grid, raw, sm_at):
    return grid, raw, sm_at


def test_walk_gives_each_block_its_grid_bytes_and_sm_offsets_in_block_order(valid_files):
    """The actions' results come back in block order; each block's bytes,
    joined, are the file after its header, and _decode_cell at each SM
    offset within them reads the grid's SM cells in wire order."""
    for data in valid_files:
        rounds, tail_bits, results = container.walk_blocks(data, _keep)
        msg = diagnose_cipher(data)
        assert (rounds, tail_bits) == (msg.sticky_rounds, msg.tail_bits)
        assert [grid for grid, _, _ in results] == list(msg.grids)
        assert b"".join(raw for _, raw, _ in results) == data[container.HEADER_BYTES :]
        for grid, raw, sm_at in results:
            assert [container._decode_cell(raw, o)[0] for o in sm_at] == [c for c in grid.cells if c[0] == SM]


def _failing_at(index, calls):
    """An action that records each grid it is given and raises on the call
    numbered `index`."""
    def action(grid, raw, sm_at):
        calls.append(grid)
        if len(calls) > index:
            raise IntegrityFailure(f"block {index}")
        return grid
    return action


def test_walk_runs_no_action_after_one_fails_but_reads_to_the_end(valid_files):
    rng = random.Random(31)
    for data in valid_files[:40]:
        grids = diagnose_cipher(data).grids
        index = rng.randrange(len(grids))
        calls = []
        with pytest.raises(IntegrityFailure, match=f"^block {index}$"):
            container.walk_blocks(data, _failing_at(index, calls))
        assert calls == list(grids[: index + 1])


def test_a_later_cut_block_or_trailing_byte_outranks_the_actions_error(valid_files):
    """The action fails on the first block; a cut anywhere after that block,
    or one trailing byte, still raises what read_cipher raises, and no
    action runs after the first."""
    rng = random.Random(32)
    for data in valid_files[:40]:
        first_end = container.HEADER_BYTES + len(container.walk_blocks(data, _keep)[2][0][1])
        bad = [data + b"\0"]
        if first_end < len(data):
            bad.append(data[: rng.randrange(first_end, len(data))])
        for damaged in bad:
            expected = _outcome(container.read_cipher, damaged)
            assert issubclass(expected[0], ContainerError)
            calls = []
            assert _outcome(lambda d: container.walk_blocks(d, _failing_at(0, calls)), damaged) == expected
            assert len(calls) == 1
