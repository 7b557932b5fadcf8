package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"lhg/internal/obs"
)

// Cross-process singleflight. The in-process flight group already
// guarantees one campaign per key per daemon; the lease extends that to a
// fleet sharing one data directory. The leader of a flight publishes its
// claim as <hash>.json.lease — exactly one process in the fleet wins — and
// every loser waits for either the report file to appear or the lease to
// die, then re-reads the store. A crashed leader is survived by the TTL:
// the next contender removes the expired lease and takes over.
//
// A claim is only ever visible complete: it is written to a private temp
// file and hard-linked into place, and the link fails atomically when any
// claim is already there. (Creating the lease with O_EXCL and writing it
// afterwards let a contender read the empty file in between, judge it
// dead, remove it and win too.) Removal — a takeover of an expired claim
// or a Release — is compare-and-remove: the claim is renamed to a private
// tombstone, re-checked there, and unlinked only if it is still the claim
// the remover meant; a successor's claim is linked back. So a leader that
// overstays its TTL does not remove its successor's lease.
var (
	mLeaseAcquired  = obs.NewCounter("store.lease.acquired")
	mLeaseContested = obs.NewCounter("store.lease.contested")
	mLeaseTakeovers = obs.NewCounter("store.lease.takeovers")
	mLeaseReleased  = obs.NewCounter("store.lease.released")
	mLeaseWaits     = obs.NewCounter("store.lease.waits")
)

// DefaultLeaseTTL bounds how long a dead leader can block a key.
const DefaultLeaseTTL = 5 * time.Minute

// leaseFile is the on-disk claim.
type leaseFile struct {
	Owner   string `json:"owner"`
	Expires int64  `json:"expires_unix_ns"`
}

// Lease is a held claim on one key.
type Lease struct {
	s     *Store
	hash  string
	claim []byte // the published claim, byte for byte
}

func (s *Store) leasePath(hash string) string {
	return s.path(hash) + ".lease" // <hash>.json.lease, invisible to the index scan
}

// Acquire claims the right to compute key. It returns (lease, true) to
// exactly one contender fleet-wide, and to none once key's value is
// published; everyone else gets (nil, false) and should WaitValue. An
// expired claim (crashed leader) is removed and contested again, so
// acquisition needs at most a few attempts.
func (s *Store) Acquire(key string, ttl time.Duration) (*Lease, bool, error) {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	hash := Key(key)
	path := s.leasePath(hash)
	owner := fmt.Sprintf("%d-%x", os.Getpid(), rand.Uint64())
	claim, _ := json.Marshal(leaseFile{Owner: owner, Expires: time.Now().Add(ttl).UnixNano()})
	for attempt := 0; attempt < 3; attempt++ {
		err := s.publishClaim(path, claim)
		if err == nil {
			// A leader that published and released before this claim
			// landed leaves nothing to compute: step back so the caller
			// adopts the value (WaitValue returns it at once).
			if _, serr := os.Stat(s.path(hash)); serr == nil {
				s.removeClaim(path, claim)
				mLeaseContested.Inc()
				return nil, false, nil
			}
			mLeaseAcquired.Inc()
			return &Lease{s: s, hash: hash, claim: claim}, true, nil
		}
		if !os.IsExist(err) {
			mErrors.Inc()
			return nil, false, fmt.Errorf("store: lease %s: %w", hash, err)
		}
		held, live, err := readClaim(path, ttl)
		if os.IsNotExist(err) {
			continue // released between publish and read: contend again
		}
		if err != nil {
			mErrors.Inc()
			return nil, false, fmt.Errorf("store: lease %s: %w", hash, err)
		}
		if live {
			mLeaseContested.Inc()
			return nil, false, nil
		}
		// Expired: a crashed leader's. Remove exactly that claim (not one a
		// faster contender has published since) and contend again.
		if s.removeClaim(path, held) {
			mLeaseTakeovers.Inc()
		}
	}
	mLeaseContested.Inc()
	return nil, false, nil
}

// publishClaim makes claim visible at path only once it is complete:
// written to a private temp file, then hard-linked into place. The link
// fails with EEXIST when a claim is already there.
func (s *Store) publishClaim(path string, claim []byte) error {
	tmp, err := os.CreateTemp(s.dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(claim)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Link(tmp.Name(), path)
}

// readClaim reads the claim at path and reports whether it is live.
// Acquire publishes complete claims only, so an unparseable claim is
// debris (a damaged disk, a foreign writer): it is aged by its mtime
// against ttl instead of being removed on sight.
func readClaim(path string, ttl time.Duration) (data []byte, live bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	if data, err = io.ReadAll(f); err != nil {
		return nil, false, err
	}
	var lf leaseFile
	if json.Unmarshal(data, &lf) == nil {
		return data, time.Now().UnixNano() < lf.Expires, nil
	}
	return data, time.Since(fi.ModTime()) < ttl, nil
}

// removeClaim removes the claim at path only if it is still exactly want.
// The claim is first renamed to a private tombstone, which no contender
// can replace, and compared there. A claim that changed hands in the
// meantime is linked back into place.
func (s *Store) removeClaim(path string, want []byte) bool {
	tomb := fmt.Sprintf("%s.dead-%x", path, rand.Uint64())
	if os.Rename(path, tomb) != nil {
		return false
	}
	defer os.Remove(tomb)
	if got, err := os.ReadFile(tomb); err == nil && bytes.Equal(got, want) {
		return true
	}
	// The restore fails only if yet another claim was published in the
	// moment the path stood empty; that newer claim then holds the key.
	_ = os.Link(tomb, path)
	return false
}

// Release gives the claim up. Only the owner's claim is removed, so a
// takeover that already replaced the lease is left alone.
func (l *Lease) Release() {
	path := l.s.leasePath(l.hash)
	if held, err := os.ReadFile(path); err != nil || !bytes.Equal(held, l.claim) {
		return
	}
	if l.s.removeClaim(path, l.claim) {
		mLeaseReleased.Inc()
	}
}

// WaitValue blocks until key's value appears in the store (the fleet-wide
// leader finished and published), the claim on it dies without a value
// (found=false: the caller should re-contend with Acquire), or ctx ends.
func (s *Store) WaitValue(ctx context.Context, key string, poll time.Duration) (json.RawMessage, bool, error) {
	if poll <= 0 {
		poll = 20 * time.Millisecond
	}
	mLeaseWaits.Inc()
	hash := Key(key)
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		if v, ok, err := s.Get(key); err != nil {
			return nil, false, err
		} else if ok {
			return v, true, nil
		}
		if _, live, _ := readClaim(s.leasePath(hash), DefaultLeaseTTL); !live {
			// One final read closes the publish-then-release window.
			v, ok, err := s.Get(key)
			return v, ok, err
		}
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-t.C:
		}
	}
}
