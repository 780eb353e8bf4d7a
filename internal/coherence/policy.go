package coherence

import "repro/internal/proto"

// Policy is a coherence protocol: the protocol-specific decisions of
// Table IV, read from the policy's proto feature row, plus the
// transition table built from that row. Everything else — the
// transaction structure, transient states, forwarding, invalidation,
// writebacks — is shared across protocols. Adding a policy is one row
// in the proto registry and one variable below; an ad-hoc policy (an
// experiment or a deliberately buggy test double) comes from NewPolicy.
type Policy = *policy

type policy struct {
	table *proto.Table // built from the feature row; drives dispatch

	// phasePriority installs the Phase-Priority discipline on the
	// directory's per-transaction request queues (see queueClass).
	phasePriority bool
}

// registered returns the policy whose feature row and table are
// registered in proto under name.
func registered(name string) Policy {
	return &policy{table: proto.TableFor(name)}
}

// NewPolicy builds a policy outside the registry from its feature row.
func NewPolicy(name string, f proto.Features) Policy {
	return &policy{table: proto.Build(name, f)}
}

// Name identifies the protocol in reports.
func (p *policy) Name() string { return p.table.Policy }

// Table returns the policy's transition relation, the table both
// controllers dispatch from and the model checker verifies against.
func (p *policy) Table() *proto.Table { return p.table }

// SilentUpgrade reports whether a store hitting an E-state L1 line
// (whose write-protection marking is lineWP) may transition to M locally
// without notifying the LLC. MESI and SwiftDir keep this speedup
// unconditionally; S-MESI revokes it (Figure 3); the E_wp ablation must
// revoke it for E_wp lines or the LLC would serve stale data (the hazard
// that makes E_wp "complicated").
func (p *policy) SilentUpgrade(lineWP bool) bool { return p.table.Features.SilentE.For(lineWP) }

// LoadRequest returns the coherence request an L1 load miss emits, given
// the access's write-protection bit. SwiftDir (and the E_wp ablation)
// emit GETS_WP for write-protected data.
func (p *policy) LoadRequest(wp bool) MsgKind {
	if wp && p.table.Features.WPLoads {
		return MsgGETSWP
	}
	return MsgGETS
}

// GrantExclusiveOnLoad reports whether the directory grants exclusivity
// (I→E) for an initial load. SwiftDir answers false for write-protected
// data, enforcing the I→S transition of Figure 4(a); MSI never grants E.
func (p *policy) GrantExclusiveOnLoad(wp bool) bool { return p.table.Features.Exclusive.For(wp) }

// ServeExclusiveFromLLC reports whether a GETS hitting a
// directory-Exclusive block may be served directly from the LLC, given
// whether the block was write-protected when granted. S-MESI answers true
// unconditionally (its explicit upgrades make E provably clean); the E_wp
// ablation answers true only for write-protected blocks (which cannot
// have been silently modified); MESI and SwiftDir must forward.
func (p *policy) ServeExclusiveFromLLC(blockWP bool) bool {
	return p.table.Features.LLCServeE.For(blockWP)
}

// OwnershipTransfer reports whether the protocol uses MOESI's Owned
// state: a dirty owner answering a forwarded GETS keeps its dirty copy in
// state O and supplies sharers directly, instead of writing back to the
// LLC and downgrading to S.
func (p *policy) OwnershipTransfer() bool { return p.table.Features.Owned }

// ForwardStateFor reports whether the protocol designates a MESIF
// Forward holder among the sharers of a (possibly write-protected) block,
// so shared reads are served cache-to-cache by the forwarder rather than
// by the LLC. The SwiftDir adaptation answers false for write-protected
// data, keeping their service at the LLC constant.
func (p *policy) ForwardStateFor(wp bool) bool { return p.table.Features.Forward.For(wp) }

// queueClass is the Phase-Priority arbitration class of a queued request
// (lower wins): requests that retire an already-started coherence phase
// drain before requests that would open a new one. Upgrades (a sharer
// finishing its store) beat GETX (a new writer), which beat loads.
func queueClass(k MsgKind) uint8 {
	switch k {
	case MsgUpgrade:
		return 0
	case MsgGETX:
		return 1
	case MsgGETS, MsgGETSWP:
		return 2
	}
	return 3 // PUTS/PUTX keep their arrival order at the back
}

// The protocols under evaluation.
var (
	MESI  = registered("MESI")
	SMESI = registered("S-MESI")
	// SwiftDir eliminates the E state for write-protected data: their
	// loads go I→S and are always served by the LLC.
	SwiftDir = registered("SwiftDir")
	// SwiftDirEwp is the alternative design the paper considers and
	// rejects in §III-B3: instead of eliminating the E state for
	// write-protected data, a specialized E_wp state keeps exclusivity
	// but lets the LLC serve remote loads directly (E_wp blocks are
	// write-protected, hence provably unmodified). It is equally secure
	// but complicates the protocol — an extra stable state at the
	// directory and a Downgrade flow — which is exactly why SwiftDir
	// prefers the I→S simplification. Kept as an executable ablation.
	SwiftDirEwp = registered("SwiftDir-Ewp")
	// MOESI is the MOESI baseline (AMD Opteron family, §II-A2): MESI plus
	// the Owned state, so dirty data migrate cache-to-cache without LLC
	// writebacks. The E/S (and O/S) timing channel exists here exactly
	// as in MESI.
	MOESI = registered("MOESI")
	// SwiftDirMOESI applies SwiftDir's I→S rule on top of MOESI: the
	// defense is orthogonal to the ownership-transfer optimization, and
	// write-protected data never reach E, M, or O.
	SwiftDirMOESI = registered("SwiftDir-MOESI")
	// MESIF is the MESIF baseline (Intel QPI-era point-to-point
	// interconnects): among the clean sharers of a block, the most
	// recent requestor holds the Forward state and answers shared reads
	// cache-to-cache. In a two-level inclusive hierarchy this turns
	// S-state service into a three-hop path whenever a forwarder exists,
	// leaving a residual forwarder-present/absent timing channel.
	MESIF = registered("MESIF")
	// SwiftDirMESIF applies SwiftDir to MESIF: write-protected data get
	// neither E nor F, so every access to them is the constant LLC
	// service; unprotected data keep the forwarder optimization.
	SwiftDirMESIF = registered("SwiftDir-MESIF")
	// MSI is the three-state baseline that predates MESI: no Exclusive
	// state at all, so a first reader installs Shared and every store to
	// a previously-loaded line pays an explicit Upgrade round trip. It
	// closes the E/S channel trivially — the naive "just drop the E
	// state" fix — but taxes every private read-then-write, which is
	// precisely the cost the E state was invented to remove (§II-A1).
	MSI = registered("MSI")
	// PhasePriority is MESI plus phase-priority directory arbitration
	// (after the at-memory request-priority schemes of arXiv:1305.3038).
	// The transition relation is exactly MESI's — arbitration only
	// reorders the replay of queued requests, which is not an externally
	// observable event — so the model checker verifies it against the
	// MESI-shaped table for free.
	PhasePriority = &policy{table: proto.TableFor("Phase-Priority"), phasePriority: true}
)

// Policies lists the paper's three protocols in its comparison order.
var Policies = []Policy{MESI, SwiftDir, SMESI}

// AllPolicies additionally includes the E_wp ablation, the MOESI and
// MESIF families, and the MSI baseline. The ablation sweep iterates this
// list, so its membership is part of the golden report surface; purely
// additive policies (arbitration variants) go in ExtendedPolicies.
var AllPolicies = []Policy{MESI, SwiftDir, SMESI, SwiftDirEwp, MOESI, SwiftDirMOESI, MESIF, SwiftDirMESIF, MSI}

// ExtendedPolicies is every selectable policy: AllPolicies plus the
// arbitration variants that are protocol-identical to a baseline.
var ExtendedPolicies = append(append([]Policy{}, AllPolicies...), PhasePriority)

// PolicyNames lists every selectable policy name, in ExtendedPolicies
// order — the single source for CLI flag help, so the lists cannot go
// stale as policies are added.
func PolicyNames() []string {
	names := make([]string, len(ExtendedPolicies))
	for i, p := range ExtendedPolicies {
		names[i] = p.Name()
	}
	return names
}

// PolicyByName resolves a protocol by its Name, or nil.
func PolicyByName(name string) Policy {
	for _, p := range ExtendedPolicies {
		if p.Name() == name {
			return p
		}
	}
	return nil
}
