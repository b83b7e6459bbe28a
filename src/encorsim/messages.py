"""
Control-plane message and trace types shared by both architectures, and
attach and every handover sequence as a table of (kind, src role, dst
role, via_core, via_hop) steps. A ``HandoverTrace`` is the table a
procedure of ``control`` (edge-routed) or ``lte`` (S1) ran, with the ids
bound to its roles, its time and one payload per step; its messages and
counts derive from the table. The load experiment takes its per-message
core flags from the tables too.
"""
import enum
from collections import Counter
from dataclasses import dataclass, field


class Kind(str, enum.Enum):
    # attach
    ATTACH_REQUEST = "AttachRequest"
    AUTH_CHALLENGE = "AuthChallenge"
    AUTH_RESPONSE = "AuthResponse"
    ATTACH_ACCEPT = "AttachAccept"
    # handover (shared vocabulary)
    HO_REQUIRED = "HoRequired"
    HO_REQUEST = "HoRequest"
    HO_REQUEST_ACK = "HoRequestAck"
    HO_COMMAND = "HoCommand"
    HO_CONFIRM = "HoConfirm"
    HO_COMPLETE_NOTIFY = "HoCompleteNotify"
    UE_CONTEXT_RELEASE = "UeContextRelease"
    # LTE-only
    CREATE_INDIRECT_TUNNEL_REQ = "CreateIndirectTunnelReq"
    CREATE_INDIRECT_TUNNEL_RESP = "CreateIndirectTunnelResp"
    ENB_STATUS_TRANSFER = "eNBStatusTransfer"
    MME_STATUS_TRANSFER = "MMEStatusTransfer"
    HO_NOTIFY = "HoNotify"
    MODIFY_BEARER_REQ = "ModifyBearerReq"
    MODIFY_BEARER_RESP = "ModifyBearerResp"
    UE_CONTEXT_RELEASE_COMMAND = "UeContextReleaseCommand"
    UE_CONTEXT_RELEASE_COMPLETE = "UeContextReleaseComplete"


@dataclass
class ControlMessage:
    kind: Kind
    src: str
    dst: str
    via_core: bool = False
    payload: dict = field(default_factory=dict)
    time_us: int = 0


class HandoverMode(str, enum.Enum):
    ATTACH = "Attach"
    CORE_ASSISTED = "CoreAssisted"
    DIRECT = "Direct"
    LTE_S1 = "LteS1"


class StepTable(tuple):
    """A tuple of (kind, src role, dst role, via_core, via_hop) steps, with
    its per-kind ``kinds`` Counter, its ``via_core`` count and its
    ``relayed`` steps, the (index, dst role) of each via-HOP step, computed
    once when the table is made."""

    def __new__(cls, steps):
        table = super().__new__(cls, steps)
        table.kinds = Counter(step[0] for step in table)
        table.via_core = sum(1 for step in table if step[3])
        table.relayed = tuple((i, step[2]) for i, step in enumerate(table)
                              if step[4])
        return table


@dataclass
class HandoverTrace:
    """The step table a procedure ran, the element ids bound to its roles
    (an unbound role names the element itself), the procedure's time and
    one payload dict (or None, no payload) per step.

    ``messages`` is a new list of new ``ControlMessage``s, payloads
    copied, made on each read: changing it changes nothing in the trace.
    """
    mode: HandoverMode
    steps: StepTable = StepTable(())
    ids: dict = field(default_factory=dict)
    time_us: int = 0
    payloads: list = field(default_factory=list)
    failed: bool = False

    @property
    def messages(self):
        ids, now_us = self.ids, self.time_us
        return [ControlMessage(kind, ids.get(src, src), ids.get(dst, dst),
                               via_core, dict(payload or {}), now_us)
                for (kind, src, dst, via_core, _), payload
                in zip(self.steps, self.payloads)]

    def __len__(self):
        return len(self.steps)

    def sequence_chart(self):
        """Plain-text message sequence chart, one arrow per line."""
        lines = [f"# {self.mode.value}" + (" (FAILED)" if self.failed else "")]
        for i, m in enumerate(self.messages):
            core = " [core]" if m.via_core else ""
            lines.append(f"{i + 1:2d}. {m.src} -> {m.dst}: {m.kind.value}{core}")
        return "\n".join(lines)


# Roles a sequence step names; the procedure binds each to an element id.
SRC, TGT, UE, HOP = "src", "tgt", "ue", "hop"
SME, MME, SGW = "sme", "mme", "sgw"


def _steps(rows, anchored=False):
    """(kind, src, dst) rows -> (kind, src, dst, via_core, via_hop) steps.

    Every message of an anchored (S1) sequence is via core, even the
    UE-facing ones, which exist only as legs of MME-driven exchanges; an
    edge-routed message is via core when it touches the SME. A message
    between the two base stations goes through the relay."""
    return StepTable((kind, a, b, anchored or SME in (a, b),
                      {a, b} == {SRC, TGT}) for kind, a, b in rows)


ATTACH_SEQUENCE = _steps((
    (Kind.ATTACH_REQUEST, UE, SME),
    (Kind.AUTH_CHALLENGE, SME, UE),
    (Kind.AUTH_RESPONSE, UE, SME),
    (Kind.ATTACH_ACCEPT, SME, UE),
))

# Reconstructed S1 handover: 15 messages, all core-side.
S1_SEQUENCE = _steps((
    (Kind.HO_REQUIRED, SRC, MME),
    (Kind.HO_REQUEST, MME, TGT),
    (Kind.HO_REQUEST_ACK, TGT, MME),
    (Kind.CREATE_INDIRECT_TUNNEL_REQ, MME, SGW),
    (Kind.CREATE_INDIRECT_TUNNEL_RESP, SGW, MME),
    (Kind.HO_COMMAND, MME, SRC),
    (Kind.HO_COMMAND, SRC, UE),
    (Kind.ENB_STATUS_TRANSFER, SRC, MME),
    (Kind.MME_STATUS_TRANSFER, MME, TGT),
    (Kind.HO_CONFIRM, UE, TGT),
    (Kind.HO_NOTIFY, TGT, MME),
    (Kind.MODIFY_BEARER_REQ, MME, SGW),
    (Kind.MODIFY_BEARER_RESP, SGW, MME),
    (Kind.UE_CONTEXT_RELEASE_COMMAND, MME, SRC),
    (Kind.UE_CONTEXT_RELEASE_COMPLETE, SRC, MME),
), anchored=True)

# Edge-routed handover: a mode-specific prefix up to the target's
# admission decision, then a tail shared by both modes.
EDGE_PREFIX = {
    HandoverMode.CORE_ASSISTED: _steps(((Kind.HO_REQUIRED, SRC, SME),
                                        (Kind.HO_REQUEST, SME, TGT))),
    HandoverMode.DIRECT: _steps(((Kind.HO_REQUIRED, SRC, TGT),)),
}
EDGE_TAIL = _steps((
    (Kind.HO_REQUEST_ACK, TGT, SRC),
    (Kind.HO_COMMAND, SRC, UE),
    (Kind.HO_CONFIRM, UE, TGT),
    (Kind.HO_COMPLETE_NOTIFY, TGT, SRC),
    (Kind.UE_CONTEXT_RELEASE, SRC, HOP),
))
# a done edge-routed handover ran its mode's prefix and the tail; a
# refused one ran the prefix alone
EDGE_SEQUENCE = {mode: StepTable(prefix + EDGE_TAIL)
                 for mode, prefix in EDGE_PREFIX.items()}


def count_messages(trace):
    """Tally a trace: (per-kind Counter, count of core-traversing messages).
    The Counter is a copy of the one its table computed once."""
    # a Counter holds nothing but its dict, so a bare one filled by
    # dict.update is a full copy; Counter.copy runs __init__ and update
    # in Python, most of the cost of a call
    kinds = Counter.__new__(Counter)
    dict.update(kinds, trace.steps.kinds)
    return kinds, trace.steps.via_core
