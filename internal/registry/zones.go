package registry

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"dropzero/internal/model"
	"dropzero/internal/zone"
)

// This file is the store's zone registry: which TLDs the store operates,
// under which lifecycle and drop policy. Every store hosts the default
// .com/.net zone from construction (not journaled — pre-federation WALs
// replay unchanged); further zones are add-only via AddZone, journaled as
// MutAddZone so recovery, replication and the event feed all learn them in
// stream order, before any domain record that needs them.
//
// Locking: zoneMu is a leaf lock like delMu — no path may acquire a shard
// lock while holding it — and splitName, which replay runs under a shard
// lock, takes no lock at all (it reads the published TLD map).
// installZoneDue therefore runs after zoneMu is released; that is safe
// because a just-added zone cannot have domains yet (creating one was
// impossible while its TLD was unknown).

// zoneTable is the store's zone state under zoneMu.
type zoneTable struct {
	mu    sync.RWMutex
	zones []zone.Config
	// tldZone maps TLD -> index into zones: an immutable map, replaced under
	// mu on every install, so HostsTLD reads it without a lock.
	tldZone atomic.Pointer[map[model.TLD]int]
}

func (zt *zoneTable) init() {
	def := zone.Default()
	zt.zones = []zone.Config{def}
	tz := make(map[model.TLD]int, len(def.TLDs))
	for _, t := range def.TLDs {
		tz[t] = 0
	}
	zt.tldZone.Store(&tz)
}

// Zones returns the store's zone configs in installation order; index 0 is
// always the default .com/.net zone.
func (s *Store) Zones() []zone.Config {
	s.zoneTab.mu.RLock()
	defer s.zoneTab.mu.RUnlock()
	out := make([]zone.Config, len(s.zoneTab.zones))
	copy(out, s.zoneTab.zones)
	return out
}

// ZoneByName returns the named zone's config.
func (s *Store) ZoneByName(name string) (zone.Config, bool) {
	s.zoneTab.mu.RLock()
	defer s.zoneTab.mu.RUnlock()
	for _, z := range s.zoneTab.zones {
		if z.Name == name {
			return z, true
		}
	}
	return zone.Config{}, false
}

// HostsTLD reports whether some zone of this store operates t.
func (s *Store) HostsTLD(t model.TLD) bool {
	_, ok := (*s.zoneTab.tldZone.Load())[t]
	return ok
}

// AddZone installs a new zone: its TLDs become creatable, its lifecycle
// parameters drive the due-day indexing of its domains, and the addition is
// journaled (MutAddZone) so replicas and recovery replay it in stream order.
// Zones are add-only and their TLD sets must not overlap any installed
// zone's.
func (s *Store) AddZone(z zone.Config) error { return s.addZone(z, true) }

// addZone installs z, AddZone's commit and replay's alike; a live one is
// journaled and waited for.
func (s *Store) addZone(z zone.Config, live bool) error {
	zt := &s.zoneTab
	zt.mu.Lock()
	if err := zt.installLocked(z); err != nil {
		zt.mu.Unlock()
		return err
	}
	var wait func() error
	if live {
		wait = s.appendJournal(&Mutation{Kind: MutAddZone, Zone: z})
	}
	s.bumpGen()
	zt.mu.Unlock()
	s.installZoneDue()
	return waitJournal(wait)
}

// InstallZones brings the store to the configured extra zones: each one not
// yet hosted is added (AddZone, journaled), and each one already hosted — a
// recovered store has replayed its MutAddZone — is checked against its
// configuration instead, appending nothing. A hosted zone whose TLDs or
// policy differ is refused with both configurations in the error.
func (s *Store) InstallZones(zs []zone.Config) error {
	for _, z := range zs {
		have, ok := s.ZoneByName(z.Name)
		if !ok {
			if err := s.AddZone(z); err != nil {
				return err
			}
			continue
		}
		if !slices.Equal(have.TLDs, z.TLDs) || have.Policy != z.Policy {
			return fmt.Errorf("registry: recovered zone %q (%v %s) disagrees with the configured one (%v %s)",
				z.Name, have.TLDs, have.Policy, z.TLDs, z.Policy)
		}
	}
	return nil
}

// installLocked validates z — on its own, and its name and TLDs against the
// installed zones — and appends it under zt.mu. Every path installs through
// it, so a zone decoded from a WAL record, a snapshot or a replication
// stream is held to the same rules as one added live.
func (zt *zoneTable) installLocked(z zone.Config) error {
	if err := z.Validate(); err != nil {
		return err
	}
	for _, have := range zt.zones {
		if have.Name == z.Name {
			return fmt.Errorf("registry: zone %q already installed", z.Name)
		}
	}
	tz := maps.Clone(*zt.tldZone.Load())
	for _, t := range z.TLDs {
		if i, clash := tz[t]; clash {
			return fmt.Errorf("registry: TLD %q already operated by zone %q", t, zt.zones[i].Name)
		}
	}
	idx := len(zt.zones)
	zt.zones = append(zt.zones, z)
	for _, t := range z.TLDs {
		tz[t] = idx
	}
	zt.tldZone.Store(&tz)
	return nil
}

// RestoreZones installs snapshot-carried zones during recovery (the store is
// empty and not yet serving; no journaling, no generation bump — FinishRestore
// installs the snapshot's counter).
func (s *Store) RestoreZones(zs []zone.Config) error {
	zt := &s.zoneTab
	zt.mu.Lock()
	for _, z := range zs {
		if err := zt.installLocked(z); err != nil {
			zt.mu.Unlock()
			return err
		}
	}
	zt.mu.Unlock()
	s.installZoneDue()
	return nil
}

// zoneDuePerTLD derives the per-TLD due-day parameter overrides from the
// non-default zones. The default zone's parameters stay the policy base
// (installed by NewLifecycle), keeping pre-federation stores bit-identical.
func (s *Store) zoneDuePerTLD() map[model.TLD]*duePolicy {
	s.zoneTab.mu.RLock()
	defer s.zoneTab.mu.RUnlock()
	if len(s.zoneTab.zones) == 1 {
		return nil
	}
	per := make(map[model.TLD]*duePolicy)
	for _, z := range s.zoneTab.zones[1:] {
		zp := &duePolicy{
			redemptionDays:   z.Lifecycle.RedemptionDays,
			graceDays:        z.Lifecycle.GraceDays,
			defaultGraceDays: z.Lifecycle.DefaultGraceDays,
		}
		for _, t := range z.TLDs {
			per[t] = zp
		}
	}
	return per
}

// installZoneDue pushes the current per-TLD due overrides into every shard's
// policy. Shards are updated one at a time under their own locks; a new
// zone's TLDs have no indexed domains yet, so no bucket rebuild is needed.
func (s *Store) installZoneDue() {
	per := s.zoneDuePerTLD()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.policy.perTLD = per
		sh.mu.Unlock()
	}
}

// CheckName validates a domain name's syntax and that its TLD is operated by
// one of this store's zones, without taking any shard lock, so protocol
// front ends can reject garbage before charging rate-limit budget (an
// invalid-name create must never cost a token).
func (s *Store) CheckName(name string) error {
	_, _, err := s.splitName(name)
	return err
}
