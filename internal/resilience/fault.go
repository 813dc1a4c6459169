package resilience

import (
	"context"
	"sync"
)

// Fault names an injection point in the pipeline. Production code calls
// Fire at these points; tests install hooks that poison state, return
// errors, or stall until a deadline to exercise the recovery paths.
type Fault string

const (
	// FaultTrainStep fires after every training epoch's optimiser steps,
	// with the model's parameter set as payload. A test hook can poison
	// the weights with NaN to simulate DP-noise-induced divergence.
	FaultTrainStep Fault = "nn/train-step"
	// FaultRelease fires before a baseline release, with the algorithm
	// name as payload. A hook can return an error (failed release) or
	// block on ctx.Done() (delay past a deadline).
	FaultRelease Fault = "baselines/release"
	// FaultCheckpoint fires before a checkpoint cell is recorded, with the
	// cell key as payload, so tests can kill a sweep mid-write.
	FaultCheckpoint Fault = "resilience/checkpoint"
	// FaultServeQuery fires inside the query-serving daemon's handler,
	// after admission but before evaluation, with the *http.Request as
	// payload. Hooks simulate slow handlers (block on ctx.Done), handler
	// crashes (panic), or downstream failures (return an error → 500).
	FaultServeQuery Fault = "serve/query"
	// FaultServeDrain fires once when the daemon starts its graceful
	// drain, under the drain-deadline context. A hook that blocks on
	// ctx.Done() simulates a mid-drain fault and forces the abort path.
	FaultServeDrain Fault = "serve/drain"
	// FaultIngestBatch fires before an accepted batch is appended to the
	// ingest WAL, with the batch ordinal (int) as payload. A hook that
	// blocks lets a kill-and-replay test SIGKILL the ingester before the
	// record hits the log.
	FaultIngestBatch Fault = "ingest/batch"
	// FaultWALSync fires after a WAL record's bytes are written but
	// before the file is fsynced, with the record ordinal as payload.
	// Hooks simulate fsync failure (return an error → the batch must not
	// be applied) or stall so a kill lands in the written-but-unsynced
	// window.
	FaultWALSync Fault = "ingest/wal-sync"
	// FaultAtomicRename fires inside AtomicWriteFile between the temp
	// file's fsync and the rename, with the destination path as payload —
	// the commit window where a kill must leave the previous file intact.
	FaultAtomicRename Fault = "resilience/atomic-rename"
	// FaultLedgerAppend fires after a privacy-ledger entry is written but
	// before it is fsynced, with the entry sequence number as payload, so
	// tests can crash a publisher between charging and committing.
	FaultLedgerAppend Fault = "dp/ledger-append"
	// FaultWriteENOSPC fires inside resilience.Write before the bytes hit
	// the file, with a *WriteOp payload. A hook returning an error
	// wrapping syscall.ENOSPC simulates a full disk: the write fails
	// cleanly with nothing persisted.
	FaultWriteENOSPC Fault = "fs/write-enospc"
	// FaultSyncEIO fires inside resilience.Sync before the real fsync,
	// with the file name as payload, and inside resilience.SyncDir with
	// the directory path as payload. A failing hook simulates the
	// fsync-failure case where dirty pages may be silently dropped: the
	// writer must reopen or refuse, never assume the data landed.
	FaultSyncEIO Fault = "fs/sync-eio"
	// FaultShortWrite fires inside resilience.Write before the real
	// write, with a *WriteOp payload. A failing hook persists only a
	// prefix of the record (WriteOp.Short bytes; half by default) — the
	// ENOSPC-mid-record tear that leaves a poisoned tail on disk.
	FaultShortWrite Fault = "fs/short-write"
	// FaultWALRotate fires during WAL rotation after the active segment
	// is sealed (renamed) but before the fresh active file exists, with
	// the sealed segment's sequence number as payload — the window where
	// a kill leaves the log with no active segment.
	FaultWALRotate Fault = "ingest/wal-rotate"
	// FaultCompactDelete fires before each snapshot-covered WAL segment
	// is deleted during compaction, with the segment path as payload, so
	// a kill can land with the snapshot written but covered segments
	// still on disk.
	FaultCompactDelete Fault = "ingest/compact-delete"
	// FaultWindowCut fires in the continual-release pipeline after a
	// window's boundaries are decided but before its frozen cut file is
	// written, with the window ordinal (int) as payload. A stalled hook
	// lets a chaos test SIGKILL the supervisor before anything about the
	// window is durable.
	FaultWindowCut Fault = "pipeline/window-cut"
	// FaultWindowPublish fires after a window's ledger charge is durable
	// but before its release is copied to the public output paths, with
	// the window ordinal as payload — the window where a kill leaves a
	// charged-but-unpublished release that recovery must finish, not
	// re-charge.
	FaultWindowPublish Fault = "pipeline/window-publish"
	// FaultReloadNotify fires before the pipeline notifies the serving
	// daemon of a published window, with the window ordinal as payload. A
	// kill here leaves the release published but the server on the
	// previous generation; recovery must re-notify without re-publishing.
	FaultReloadNotify Fault = "pipeline/reload-notify"
	// FaultManifestAppend fires before a window-manifest record is
	// written, with the *Record as payload, so a chaos test can kill the
	// supervisor between a stage's durable action and the manifest line
	// that acknowledges it — the transition recovery must re-derive.
	FaultManifestAppend Fault = "pipeline/manifest-append"
	// FaultReplicaFetch fires in a follower for every chunk of a release
	// file it downloads, with a *serve.FetchChunk as payload. Hooks can
	// flip bytes in the chunk (the checksum verify must refuse the
	// install and re-fetch), return an error (a mid-transfer failure the
	// resumable download must survive), or stall so a SIGKILL lands
	// mid-sync with a partial file on disk.
	FaultReplicaFetch Fault = "serve/replica-fetch"
	// FaultScrubRead fires in the integrity scrubber for every chunk it
	// reads off disk, with a *scrub.Chunk as payload. Hooks can flip bytes
	// in the chunk (the scrubber must report the artifact corrupt without
	// the disk ever being damaged), return an error (an unreadable sector
	// the pass must survive), or stall to pin a pass mid-read.
	FaultScrubRead Fault = "scrub/read"
	// FaultRepairFetch fires before a replica-assisted repair re-fetches a
	// damaged artifact from a peer, with the artifact path as payload. A
	// failing hook simulates an unreachable or refusing peer: the artifact
	// must stay quarantined and latch the corrupt readiness state instead
	// of being silently dropped.
	FaultRepairFetch Fault = "scrub/repair-fetch"
)

// Hook is a fault handler. Returning a non-nil error makes the injection
// point fail with that error; hooks may also mutate the payload in place.
type Hook func(ctx context.Context, payload any) error

// Injector carries a set of fault hooks through a context. The zero
// Injector (and a nil one) fires nothing.
type Injector struct {
	mu    sync.Mutex
	hooks map[Fault][]Hook
	fired map[Fault]int
}

// NewInjector returns an empty injector.
func NewInjector() *Injector { return &Injector{} }

// On registers a hook for a fault point. Multiple hooks run in order;
// the first error wins.
func (in *Injector) On(f Fault, h Hook) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.hooks == nil {
		in.hooks = make(map[Fault][]Hook)
	}
	in.hooks[f] = append(in.hooks[f], h)
	return in
}

// Fired returns how many times a fault point has fired (whether or not a
// hook was registered for it).
func (in *Injector) Fired(f Fault) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[f]
}

func (in *Injector) fire(ctx context.Context, f Fault, payload any) error {
	in.mu.Lock()
	if in.fired == nil {
		in.fired = make(map[Fault]int)
	}
	in.fired[f]++
	hooks := in.hooks[f]
	in.mu.Unlock()
	for _, h := range hooks {
		if err := h(ctx, payload); err != nil {
			return err
		}
	}
	return nil
}

type injectorKey struct{}

// WithInjector returns a context carrying the injector.
func WithInjector(ctx context.Context, in *Injector) context.Context {
	return context.WithValue(ctx, injectorKey{}, in)
}

// InjectorFrom extracts the context's injector, or nil.
func InjectorFrom(ctx context.Context) *Injector {
	in, _ := ctx.Value(injectorKey{}).(*Injector)
	return in
}

// Fire triggers a fault point. Without an injector in the context it is a
// cheap no-op returning nil, so production paths pay one context lookup.
func Fire(ctx context.Context, f Fault, payload any) error {
	in := InjectorFrom(ctx)
	if in == nil {
		return nil
	}
	return in.fire(ctx, f, payload)
}
