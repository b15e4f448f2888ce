"""Unit tests for the durable PM image."""

import pytest

from repro.memory import AddressSpace, PersistentImage, line_of


@pytest.fixture
def parts():
    space = AddressSpace()
    image = PersistentImage(space)
    addr = space.alloc_pm(256, align=64)
    return space, image, addr


def test_views_start_in_sync(parts):
    space, image, addr = parts
    assert image.cache_bytes(addr, 64) == image.durable_bytes(addr, 64)
    assert image.line_divergence() == []


def test_store_diverges_views(parts):
    space, image, addr = parts
    space.write_int(addr, 8, 99)
    assert image.cache_bytes(addr, 8) != image.durable_bytes(addr, 8)
    assert line_of(addr) in image.line_divergence()
    assert not image.is_line_durable(addr)


def test_write_back_line(parts):
    space, image, addr = parts
    space.write_int(addr, 8, 99)
    image.write_back_line(line_of(addr))
    assert image.durable_bytes(addr, 8) == image.cache_bytes(addr, 8)
    assert image.is_line_durable(addr)
    assert image.writebacks == 1


def test_write_back_lines_sorted(parts):
    space, image, addr = parts
    space.write_int(addr, 8, 1)
    space.write_int(addr + 128, 8, 2)
    image.write_back_lines([line_of(addr + 128), line_of(addr)])
    assert image.line_divergence() == []
    assert image.writebacks == 2


def test_crash_adversarial_default(parts):
    space, image, addr = parts
    space.write_int(addr, 8, 0xDEAD)
    post = image.crash()
    offset = addr - space.pm.base
    assert post[offset : offset + 8] == bytes(8)  # update lost


def test_crash_with_surviving_line(parts):
    space, image, addr = parts
    space.write_int(addr, 8, 0xDEAD)
    post = image.crash([line_of(addr)])
    offset = addr - space.pm.base
    assert int.from_bytes(post[offset : offset + 8], "little") == 0xDEAD


def test_snapshot_is_copy(parts):
    space, image, addr = parts
    snapshot = image.snapshot_durable()
    space.write_int(addr, 8, 5)
    image.write_back_line(line_of(addr))
    assert snapshot != image.snapshot_durable()


def test_durable_read_bounds(parts):
    _, image, _ = parts
    with pytest.raises(IndexError):
        image.durable_bytes(0x5, 8)


def test_write_back_past_cache_high_water_moves_no_other_bytes():
    """A line that runs past the cache view's live bytes is written back
    zero-padded to a full line, leaving later durable bytes in place."""
    space = AddressSpace()
    image = PersistentImage(space)
    image.restore(bytes(128) + b"\x22" * 8)  # durable view ahead of cache view
    addr = space.alloc_pm(8)  # cache view holds 8 live bytes
    space.write_int(addr, 8, 0x11)
    image.write_back_line(line_of(addr))
    assert image.durable_bytes(addr, 8) == (0x11).to_bytes(8, "little")
    assert image.durable_bytes(addr + 8, 120) == bytes(120)
    assert image.durable_bytes(addr + 128, 8) == b"\x22" * 8
