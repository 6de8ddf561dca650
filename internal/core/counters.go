package core

import (
	"sbr6/internal/trace"
	"sbr6/internal/wire"
)

// hotCounters are the counters the per-frame receive and transmit paths
// bump, each resolved once against the node's Metrics on first use (see
// trace.Counter), so a received or sent frame costs pointer increments
// instead of string hashes. Resolution is lazy: a counter the node never
// touches costs nothing, and a resolved one appears in results only once
// incremented — exactly like the by-name counters they replace.
type hotCounters struct {
	rxFrames, rxAREQ, rxRREQ, rxAADV trace.Counter
	fwdRREQ                          trace.Counter
	txData, txControl, txTotal       trace.Counter
	tx                               [wire.NumTypes]trace.Counter // tx.<type>, indexed by wire.Type
}

// hot returns the counter at *c, resolving it by name on first use.
func (n *Node) hot(c *trace.Counter, name string) trace.Counter {
	if !c.Resolved() {
		*c = n.met.Counter(name)
	}
	return *c
}

// txName is the per-type transmit counter name, "tx." + t.String(), from
// a static table: the send path never builds a string.
func txName(t wire.Type) string {
	switch t {
	case wire.TAREQ:
		return "tx.AREQ"
	case wire.TAREP:
		return "tx.AREP"
	case wire.TDREP:
		return "tx.DREP"
	case wire.TRREQ:
		return "tx.RREQ"
	case wire.TRREP:
		return "tx.RREP"
	case wire.TCREP:
		return "tx.CREP"
	case wire.TRERR:
		return "tx.RERR"
	case wire.TData:
		return "tx.DATA"
	case wire.TAck:
		return "tx.ACK"
	case wire.TDNSQuery:
		return "tx.DNSQ"
	case wire.TDNSAnswer:
		return "tx.DNSA"
	case wire.TUpdateReq:
		return "tx.UPDQ"
	case wire.TUpdateChal:
		return "tx.CHAL"
	case wire.TUpdate:
		return "tx.UPD"
	case wire.TUpdateResult:
		return "tx.UPDR"
	case wire.TAuditAdv:
		return "tx.AADV"
	case wire.TAuditObj:
		return "tx.AOBJ"
	default:
		return "tx." + t.String()
	}
}
