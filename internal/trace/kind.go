package trace

import "fmt"

// Kind is the event taxonomy: every instrumentation point in the stack
// emits one of these.  Kinds are grouped by subsystem; Category maps a
// kind back to its group for exporters.
type Kind uint16

// The event taxonomy (DESIGN.md §8).  Arg conventions are noted per
// kind; unlisted args are zero.
const (
	// KindNone is the zero kind (never emitted).
	KindNone Kind = iota

	// Kernel-agent registration path.

	// KindRegister spans one RegisterMem call.  Begin: Arg1=vaddr,
	// Arg2=length.  End: Arg1=1 on success / 0 on failure, Arg2=the NIC
	// memory handle (success only).
	KindRegister
	// KindPin marks the pages pinned by the locking strategy.
	// Arg1=pages.
	KindPin
	// KindTPTInsert marks the region's TPT entries filled.
	// Arg1=handle, Arg2=pages.
	KindTPTInsert
	// KindDeregister spans one DeregisterMem call.  Begin: Arg1=reg id,
	// Arg2=handle.  End: Arg1=1 on success / 0 on failure, Arg2=handle.
	KindDeregister
	// KindTPTInvalidate marks the region's TPT entries invalidated.
	// Arg1=handle, Arg2=slots.
	KindTPTInvalidate

	// Registration cache.

	// KindCacheHit marks an Acquire satisfied from the cache.
	// Arg1=vaddr, Arg2=length.
	KindCacheHit
	// KindCacheMiss marks an Acquire that became single-flight leader.
	// Arg1=vaddr, Arg2=length.
	KindCacheMiss
	// KindCacheWait marks an Acquire that waited on an in-flight
	// registration.  Arg1=vaddr, Arg2=length.
	KindCacheWait
	// KindCacheEvict marks a cached region evicted.  Arg1=vaddr,
	// Arg2=length.
	KindCacheEvict
	// KindCacheFlush marks a whole-cache flush.  Arg1=regions dropped.
	KindCacheFlush

	// NIC data path.

	// KindDescSend spans a send-queue descriptor post → complete.
	// Begin: Arg1=VI uid, Arg2=total length.  End: Arg1=status,
	// Arg2=bytes transferred.
	KindDescSend
	// KindDescRecv spans a receive descriptor post → complete.  Args as
	// KindDescSend.
	KindDescRecv
	// KindLaneEnqueue marks a descriptor enqueued on an engine lane.
	// Arg1=lane, Arg2=queue depth after the enqueue.
	KindLaneEnqueue
	// KindLaneDequeue marks a lane worker dequeuing a descriptor.
	// Arg1=lane.
	KindLaneDequeue
	// KindLaneDepth samples a lane's queue depth (counter phase).
	// Arg1=depth, Arg2=lane.
	KindLaneDepth
	// KindTranslate marks one TPT range translation.  Arg1=handle,
	// Arg2=length.
	KindTranslate
	// KindDMA marks the sender-side data DMA stage of a descriptor
	// (startup + per-byte fetch).  Arg1=bytes, Arg2=sim-ns spent.
	KindDMA
	// KindWire marks the wire crossing.  Arg1=bytes, Arg2=sim-ns spent.
	KindWire
	// KindScatter marks the receiver-side DMA placement stage.
	// Arg1=bytes, Arg2=sim-ns spent.
	KindScatter
	// KindVIError marks a VI transitioning into the error state.
	// Arg1=VI uid.
	KindVIError
	// KindVIReset marks a VI reset out of the error state.  Arg1=VI uid.
	KindVIReset
	// KindIOPageFault marks DMA touching a non-present nopin
	// translation.  Arg1=handle, Arg2=region page index.
	KindIOPageFault
	// KindNotifierInvalidate marks an MMU-notifier downcall clearing a
	// TPT present bit.  Arg1=handle, Arg2=region page index.
	KindNotifierInvalidate
	// KindTPTRepair marks the host restoring a nopin translation after
	// fault-in.  Arg1=handle, Arg2=region page index.
	KindTPTRepair
	// KindSpecRetransmit marks a speculative-DMA chunk retransmitted
	// after host-side validation.  Arg1=handle, Arg2=bytes.
	KindSpecRetransmit
	// KindCQOverflow marks a completion queue dropping its oldest entry
	// because the consumer fell behind.  Arg1=VI uid of the incoming
	// completion, Arg2=total drops so far on the queue.
	KindCQOverflow

	// Message-layer reliability.

	// KindRetry marks a retransmission attempt.  Arg1=attempt,
	// Arg2=sequence number.
	KindRetry
	// KindBackoff marks a backoff sleep.  Arg1=delay wall-ns.
	KindBackoff
	// KindRecovery marks a completed connection-recovery handshake.
	KindRecovery
	// KindAckRescue marks a lost completion confirmed by the delivery
	// ack (no retransmit needed).  Arg1=sequence number.
	KindAckRescue
	// KindDuplicate marks a retransmitted message discarded by sequence
	// dedup.  Arg1=sequence number.
	KindDuplicate
	// KindAbort marks a reliable send abandoned after exhausting
	// retries.  Arg1=sequence number.
	KindAbort

	// Pipelined rendezvous (still message layer).

	// KindChunkReg spans one pipeline chunk's registration acquire.
	// Begin: Arg1=chunk index, Arg2=chunk length.  End: Arg1=1 on
	// success / 0 on failure, Arg2=chunk index.
	KindChunkReg
	// KindChunkXfer spans one pipeline chunk's RDMA write, post →
	// completion.  Begin: Arg1=chunk index, Arg2=chunk length.  End:
	// Arg1=1 on success / 0 on failure, Arg2=chunk index.
	KindChunkXfer
	// KindPipeFallback marks a zero-copy rendezvous degrading to the
	// one-copy path after a registration fault or a declined grant.
	// Arg1=message size, Arg2=chunks.
	KindPipeFallback

	// Ownership-transfer protocol (still message layer).

	// KindScribbleDetected marks an application store caught against an
	// in-flight ProtectSend payload.  Arg1=page index within the guarded
	// range, Arg2=message size.
	KindScribbleDetected
	// KindRemapSend marks a completed ownership-transfer send.
	// Arg1=bytes, Arg2=pages.
	KindRemapSend
	// KindRemapRecv marks a remap delivery: staged frames exchanged into
	// the receiver's page table.  Arg1=bytes, Arg2=frames adopted.
	KindRemapRecv
	// KindRemapFallback marks a remap send degrading to the one-copy
	// path after the receiver declined to stage frames.  Arg1=message
	// size, Arg2=1 (one chunk).
	KindRemapFallback

	numKinds // sentinel for exhaustiveness tests
)

// kindNames maps kinds to their exporter names.  Keep in sync with the
// constant block above; TestKindStringsExhaustive enforces it.
var kindNames = [numKinds]string{
	KindNone:               "none",
	KindRegister:           "register",
	KindPin:                "pin",
	KindTPTInsert:          "tpt-insert",
	KindDeregister:         "deregister",
	KindTPTInvalidate:      "tpt-invalidate",
	KindCacheHit:           "cache-hit",
	KindCacheMiss:          "cache-miss",
	KindCacheWait:          "cache-wait",
	KindCacheEvict:         "cache-evict",
	KindCacheFlush:         "cache-flush",
	KindDescSend:           "desc-send",
	KindDescRecv:           "desc-recv",
	KindLaneEnqueue:        "lane-enqueue",
	KindLaneDequeue:        "lane-dequeue",
	KindLaneDepth:          "lane-depth",
	KindTranslate:          "translate",
	KindDMA:                "dma",
	KindWire:               "wire",
	KindScatter:            "scatter",
	KindVIError:            "vi-error",
	KindVIReset:            "vi-reset",
	KindIOPageFault:        "io-page-fault",
	KindNotifierInvalidate: "notifier-invalidate",
	KindTPTRepair:          "tpt-repair",
	KindSpecRetransmit:     "spec-retransmit",
	KindCQOverflow:         "cq-overflow",
	KindRetry:              "retry",
	KindBackoff:            "backoff",
	KindRecovery:           "recovery",
	KindAckRescue:          "ack-rescue",
	KindDuplicate:          "duplicate",
	KindAbort:              "abort",
	KindChunkReg:           "chunk-reg",
	KindChunkXfer:          "chunk-xfer",
	KindPipeFallback:       "pipe-fallback",
	KindScribbleDetected:   "scribble-detected",
	KindRemapSend:          "remap-send",
	KindRemapRecv:          "remap-recv",
	KindRemapFallback:      "remap-fallback",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint16(k))
}

// Category maps a kind to its subsystem group (used as the Chrome trace
// category).
func (k Kind) Category() string {
	switch {
	case k >= KindRegister && k <= KindTPTInvalidate:
		return "kagent"
	case k >= KindCacheHit && k <= KindCacheFlush:
		return "regcache"
	case k >= KindDescSend && k <= KindCQOverflow:
		return "via"
	case k >= KindRetry && k <= KindRemapFallback:
		return "msg"
	default:
		return "other"
	}
}
