"""FaultInjector: determinism and per-layer hook behavior."""

import numpy as np
import pytest

from repro.core.pimalloc import PimSystem
from repro.core.selector import MatrixConfig
from repro.dram.config import TINY_ORG
from repro.os.buddy import OutOfMemoryError
from repro.pim.config import aim_config_for
from repro.reliability.faults import FaultInjector, FaultKind


def _system():
    return PimSystem.build(TINY_ORG, aim_config_for(TINY_ORG), ecc=True)


def _tensor(system, seed=0):
    tensor = system.pimalloc(MatrixConfig(rows=16, cols=256, dtype_bytes=2))
    data = np.random.default_rng(seed).integers(
        0, 1 << 16, size=(16, 256), dtype=np.uint16
    )
    tensor.store(data)
    return tensor, data


def test_same_seed_same_fault_plan():
    logs = []
    for _ in range(2):
        system = _system()
        injector = FaultInjector(seed=99).attach(system)
        tensor, _ = _tensor(system)
        injector.flip_bits_in_tensor(system, tensor, 4)
        injector.double_flip_in_tensor(system, tensor)
        injector.corrupt_pte_map_id(system, tensor.va)
        logs.append(injector.log)
    assert logs[0] == logs[1]


def test_different_seeds_diverge():
    details = []
    for seed in (1, 2):
        system = _system()
        injector = FaultInjector(seed=seed).attach(system)
        tensor, _ = _tensor(system)
        injector.flip_bits_in_tensor(system, tensor, 4)
        details.append(tuple(e.detail for e in injector.log))
    assert details[0] != details[1]


def test_attach_detach_wires_every_hook():
    system = _system()
    injector = FaultInjector().attach(system)
    assert system.memory.fault_hook is injector
    assert system.space.page_table.fault_hook is injector
    assert system.space.mmu.tlb.fault_hook is injector
    assert system.allocator.fault_hook is injector
    injector.detach()
    assert system.memory.fault_hook is None
    assert system.space.page_table.fault_hook is None
    assert system.space.mmu.tlb.fault_hook is None
    assert system.allocator.fault_hook is None


def test_stuck_bit_reasserts_after_correction():
    system = _system()
    injector = FaultInjector(seed=1).attach(system)
    tensor, data = _tensor(system)
    key = (0, 0, 0)
    injector.add_stuck_bit(system, key, byte_offset=8, bit=2, value=1)
    flat = system.memory.bank(*key).reshape(-1)
    assert flat[8] & (1 << 2)
    # Every read scrubs (correcting the word), but the very next bank
    # access re-asserts the stuck cell — reads stay correct while the
    # per-read correction counter keeps climbing.
    first = tensor.load(np.uint16)
    corrected_after_first = system.ecc.total_corrected
    second = tensor.load(np.uint16)
    assert np.array_equal(first, data)
    assert np.array_equal(second, data)
    if corrected_after_first:  # stuck cell landed in the tensor's bytes
        assert system.ecc.total_corrected > corrected_after_first
    injector.clear_stuck_bits()
    assert not injector.stuck


def test_suppressed_invalidation_leaves_stale_tlb_entry():
    system = _system()
    injector = FaultInjector().attach(system)
    tensor, _ = _tensor(system)
    va = tensor.va
    assert system.space.mmu.tlb.lookup(va) is not None  # cached by the store
    injector.suppress_invalidations(1)
    tensor.free()
    assert system.space.mmu.tlb.lookup(va) is not None  # shootdown was lost
    assert any(e.kind == FaultKind.STALE_TLB for e in injector.log)
    system.space.mmu.tlb.flush()
    assert system.space.mmu.tlb.lookup(va) is None


def test_invalidations_pass_through_without_suppression():
    system = _system()
    FaultInjector().attach(system)
    tensor, _ = _tensor(system)
    va = tensor.va
    tensor.free()
    assert system.space.mmu.tlb.lookup(va) is None


def test_scheduled_alloc_failures_raise_then_clear():
    system = _system()
    injector = FaultInjector().attach(system)
    injector.schedule_alloc_failures(2)
    matrix = MatrixConfig(rows=8, cols=128, dtype_bytes=2)
    for _ in range(2):
        with pytest.raises(OutOfMemoryError):
            system.pimalloc(matrix)
    tensor = system.pimalloc(matrix)  # budget consumed; next alloc works
    assert tensor.va > 0
    assert sum(e.kind == FaultKind.ALLOC_OOM for e in injector.log) == 2


def test_corrupt_pte_map_id_round_trips():
    system = _system()
    injector = FaultInjector(seed=0).attach(system)
    tensor, _ = _tensor(system)
    original = system.space.page_table.walk(tensor.va).map_id
    assert original == tensor.map_id
    event = injector.corrupt_pte_map_id(system, tensor.va, bit=1)
    corrupted = system.space.page_table.walk(tensor.va).map_id
    assert corrupted == original ^ 0b10
    # The (correct) TLB copy was dropped so the corruption is consumed.
    translation = system.space.mmu.translate(tensor.va)
    assert translation.map_id == corrupted
    # Flipping the same bit again restores the PTE.
    injector.corrupt_pte_map_id(system, tensor.va, bit=event.detail[1])
    assert system.space.page_table.walk(tensor.va).map_id == original


def test_failed_pu_is_tracked():
    injector = FaultInjector()
    assert not injector.pim_failed
    injector.fail_pu((0, 0, 1))
    assert injector.pim_failed
    assert (0, 0, 1) in injector.failed_pus
