package memsys

import (
	"repro/internal/config"
	"repro/internal/isa"
)

// Fast* are the functional counterparts of Load/Store/Tex, used by the
// SM's sampled-simulation mode to fast-forward between detailed windows.
// They keep the cache functionally warm (real tag-store accesses, so hit
// rates stay attributable) and file the same event counters a detailed
// access would, but model time approximately: flat latencies, no tag-port
// serialization, no MSHR table, and no DRAM bus queueing. Because they
// never touch the Memory backend, the backend's own tallies (and its bus
// clock) lag the counters during a fast-forward; single-SM runs report
// from the counters, so sampled results stay internally consistent.

// FastLoad is the functional LDG: tag probes warm the cache and classify
// hits/misses exactly, misses account their sectored fill bytes, and the
// returned data-ready cycle uses the flat DRAM latency with no queueing
// or in-flight merging.
func (m *MemSys) FastLoad(wi *isa.WarpInst, now int64) int64 {
	if !m.CacheEnabled() {
		m.c.DRAMReadBytes += int64(uncachedGranule * m.distinctAddrs(wi))
		return now + m.cfg.DRAMLatency
	}
	worst := now + m.cfg.CacheLatency
	for _, p := range m.Coalesce(wi) {
		line, sectors := unpack(p)
		m.c.CacheProbes++
		var hit bool
		if m.cfg.WriteBack {
			var victimDirty bool
			hit, victimDirty, _ = m.l1.AccessAllocate(line, false)
			if victimDirty {
				m.c.CacheDataReads++
				m.c.DRAMWriteBytes += int64(config.CacheLineBytes)
			}
		} else {
			hit = m.l1.Read(line)
		}
		if hit {
			m.c.CacheHits++
			m.c.CacheDataReads++
		} else {
			m.c.CacheMisses++
			m.c.CacheDataWrites++ // fill
			m.c.DRAMReadBytes += int64(popcount8(sectors) * SectorBytes)
			if done := now + m.cfg.DRAMLatency; done > worst {
				worst = done
			}
		}
	}
	return worst
}

// FastStore is the functional STG: write-through traffic or write-back
// allocation with dirty-victim accounting, with no bus timing.
func (m *MemSys) FastStore(wi *isa.WarpInst, now int64) {
	if !m.CacheEnabled() {
		m.c.DRAMWriteBytes += int64(uncachedGranule * m.distinctAddrs(wi))
		return
	}
	lines := m.Coalesce(wi)
	if m.cfg.WriteBack {
		for _, p := range lines {
			line, _ := unpack(p)
			m.c.CacheProbes++
			hit, victimDirty, _ := m.l1.AccessAllocate(line, true)
			m.c.CacheDataWrites++
			if !hit {
				m.c.CacheMisses++
				m.c.DRAMReadBytes += int64(config.CacheLineBytes)
			} else {
				m.c.CacheHits++
			}
			if victimDirty {
				m.c.CacheDataReads++
				m.c.DRAMWriteBytes += int64(config.CacheLineBytes)
			}
		}
		return
	}
	for _, p := range lines {
		line, _ := unpack(p)
		m.c.CacheProbes++
		if m.l1.Write(line) {
			m.c.CacheDataWrites++
		}
	}
	m.c.DRAMWriteBytes += int64(4 * wi.ActiveThreads())
}

// FastTex is the functional TEX: sectored byte accounting at the flat
// texture-path latency.
func (m *MemSys) FastTex(wi *isa.WarpInst, now int64) int64 {
	for _, p := range m.Coalesce(wi) {
		_, sectors := unpack(p)
		m.c.DRAMReadBytes += int64(popcount8(sectors) * SectorBytes)
	}
	return now + m.cfg.TexLatency
}
