//! Control-plane wire formats: S1AP-over-SCTP, GTPv2-C, Diameter and
//! OpenFlow messages, with byte-accurate on-the-wire sizes.
//!
//! Message *contents* travel in the binary layout of
//! [`acacia_simnet::codec`] (a 1-byte tag per message kind, then its
//! fields), decodable by any receiving node. Message *sizes* are fixed by
//! a per-message wire-size table calibrated to the paper's testbed
//! measurement (§4): one idle-release + re-establishment sequence costs
//! exactly **15 messages / 2914 bytes — SCTP 7 (1138), GTPv2 4 (352),
//! OpenFlow 4 (1424)**. A packet's size is the larger of that spec and the
//! message's natural size, header plus [`ControlMsg::json_len`] (the
//! compact-JSON length the model was calibrated with); encoders pad the
//! packet's virtual length up to it, so byte accounting matches the
//! OpenEPC testbed while the payloads remain fully functional.

use crate::ids::{Ebi, Imsi, Teid};
use crate::qci::Qci;
use crate::tft::{Direction, PacketFilter, Tft};
use acacia_simnet::codec::{self, json_variant, JsonObject, Reader, Wire};
use acacia_simnet::fault::PacketClass;
use acacia_simnet::packet::{proto, Packet};
use acacia_simnet::{wire_enum, wire_newtype, wire_struct};
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Well-known control-plane ports.
pub mod ports {
    /// GTP-C (GTPv2) UDP port.
    pub const GTPC: u16 = 2123;
    /// GTP-U UDP port.
    pub const GTPU: u16 = 2152;
    /// S1AP SCTP port.
    pub const S1AP: u16 = 36412;
    /// OpenFlow controller TCP port.
    pub const OPENFLOW: u16 = 6633;
    /// Diameter port.
    pub const DIAMETER: u16 = 3868;
    /// X2AP SCTP port (inter-eNB handover signalling).
    pub const X2AP: u16 = 36422;
}

/// Protocol family of a control message (for byte accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// S1AP carried over SCTP (eNB ↔ MME).
    S1apSctp,
    /// X2AP carried over SCTP (eNB ↔ eNB handover signalling).
    X2Sctp,
    /// GTPv2-C (MME ↔ GW-C).
    Gtpv2,
    /// OpenFlow (GW-C ↔ GW-U).
    OpenFlow,
    /// Diameter (Rx/Gx/S6a: MRS/PCRF/HSS signalling).
    Diameter,
    /// Radio-side RRC/NAS (UE ↔ eNB), not part of the §4 core counts.
    Rrc,
}

impl Protocol {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::S1apSctp => "SCTP",
            Protocol::X2Sctp => "X2AP",
            Protocol::Gtpv2 => "GTPv2",
            Protocol::OpenFlow => "OpenFlow",
            Protocol::Diameter => "Diameter",
            Protocol::Rrc => "RRC",
        }
    }
}

/// E-RAB parameters carried in setup messages.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ErabSetup {
    /// Bearer id.
    pub ebi: Ebi,
    /// QoS class.
    pub qci: Qci,
    /// GTP TEID the eNB must send uplink traffic to.
    pub gw_teid: Teid,
    /// Address of the (possibly local/MEC) SGW-U terminating the S1 bearer.
    pub gw_addr: Ipv4Addr,
    /// Uplink TFT to push to the UE (empty for the default bearer).
    pub tft: Tft,
}

/// A PCC rule passed from PCRF to the PCEF (paper step 2: "The PCRF
/// dynamically generates policy rules, which consist of service ID, QCI,
/// and flow information").
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PolicyRule {
    /// Application/service identifier.
    pub service_id: u32,
    /// UE address the rule applies to.
    pub ue_addr: Ipv4Addr,
    /// CI server address.
    pub server_addr: Ipv4Addr,
    /// Server port (0 = any).
    pub server_port: u16,
    /// QoS class for the dedicated bearer.
    pub qci: Qci,
    /// Install (true) or remove (false).
    pub install: bool,
}

/// Flow-match specification for OpenFlow rules on the GW-Us.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FlowMatchSpec {
    /// Match on the GTP tunnel id of encapsulated traffic.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub teid: Option<Teid>,
    /// Match on the inner/outer destination address.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub dst: Option<Ipv4Addr>,
    /// Match on the inner/outer source address.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub src: Option<Ipv4Addr>,
}

/// Actions attached to an OpenFlow rule. Encap/decap transform the packet
/// in place (OVS logical-port style); `Output` is terminal. An action list
/// with no `Output` drops the packet.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum FlowActionSpec {
    /// GTP-encapsulate toward `(peer, teid)`.
    GtpEncap {
        /// Remote tunnel endpoint.
        peer: Ipv4Addr,
        /// Tunnel id to stamp.
        teid: Teid,
    },
    /// GTP-decapsulate.
    GtpDecap,
    /// Stamp the packet's IP ToS byte (TFT-style QCI marking; a subsequent
    /// `GtpEncap` copies the inner ToS onto the outer header).
    SetTos {
        /// ToS byte to stamp (DSCP in the top six bits).
        tos: u8,
    },
    /// Send out of `port` (terminal).
    Output {
        /// Output port.
        port: usize,
    },
}

/// All control-plane messages exchanged in the reproduction.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ControlMsg {
    // ---- S1AP (eNB <-> MME), over SCTP ----
    /// Initial UE message carrying a NAS Attach Request.
    #[serde(rename = "IUA")]
    InitialUeAttach {
        /// Subscriber.
        imsi: Imsi,
    },
    /// Initial UE message carrying a NAS Service Request (idle → active).
    #[serde(rename = "IUS")]
    InitialUeServiceRequest {
        /// Subscriber.
        imsi: Imsi,
    },
    /// MME → eNB: set up the UE context and its E-RAB(s).
    #[serde(rename = "ICSq")]
    InitialContextSetupRequest {
        /// Subscriber.
        imsi: Imsi,
        /// Bearers to establish.
        erabs: Vec<ErabSetup>,
    },
    /// eNB → MME: context set up; reports eNB-side TEIDs.
    #[serde(rename = "ICSp")]
    InitialContextSetupResponse {
        /// Subscriber.
        imsi: Imsi,
        /// (EBI, eNB TEID) pairs for the established bearers.
        enb_teids: Vec<(Ebi, Teid)>,
    },
    /// MME → eNB: NAS Service Accept / Attach Accept.
    #[serde(rename = "DNA")]
    DownlinkNasAccept {
        /// Subscriber.
        imsi: Imsi,
        /// UE IP address assigned by the PGW (attach only).
        ue_addr: Option<Ipv4Addr>,
    },
    /// MME → eNB: establish one dedicated E-RAB (paper step 3's Bearer
    /// Setup Request; carries the *local* SGW-U address).
    #[serde(rename = "ESq")]
    ErabSetupRequest {
        /// Subscriber.
        imsi: Imsi,
        /// Bearer parameters.
        erab: ErabSetup,
    },
    /// eNB → MME: dedicated E-RAB established.
    #[serde(rename = "ESp")]
    ErabSetupResponse {
        /// Subscriber.
        imsi: Imsi,
        /// Bearer id.
        ebi: Ebi,
        /// eNB-side TEID for downlink.
        enb_teid: Teid,
    },
    /// MME → eNB: release a dedicated E-RAB.
    #[serde(rename = "ERC")]
    ErabReleaseCommand {
        /// Subscriber.
        imsi: Imsi,
        /// Bearer id.
        ebi: Ebi,
    },
    /// eNB → MME: E-RAB released.
    #[serde(rename = "ERR")]
    ErabReleaseResponse {
        /// Subscriber.
        imsi: Imsi,
        /// Bearer id.
        ebi: Ebi,
    },
    /// eNB → MME: UE has gone idle, please release.
    #[serde(rename = "UCRq")]
    UeContextReleaseRequest {
        /// Subscriber.
        imsi: Imsi,
    },
    /// MME → eNB: release the UE context.
    #[serde(rename = "UCRc")]
    UeContextReleaseCommand {
        /// Subscriber.
        imsi: Imsi,
    },
    /// eNB → MME: context released.
    #[serde(rename = "UCRd")]
    UeContextReleaseComplete {
        /// Subscriber.
        imsi: Imsi,
    },
    /// MME → eNB: page an idle UE (downlink data pending).
    #[serde(rename = "PAG")]
    Paging {
        /// Subscriber.
        imsi: Imsi,
    },
    /// Target eNB → MME after an X2 handover: the UE now terminates its
    /// S1 bearers here; switch the downlink path.
    #[serde(rename = "PSq")]
    PathSwitchRequest {
        /// Subscriber.
        imsi: Imsi,
        /// Target eNB S1 address.
        enb_addr: Ipv4Addr,
        /// (EBI, target-eNB downlink TEID) for every switched bearer.
        erabs: Vec<(Ebi, Teid)>,
        /// Procedure transaction id: retransmissions reuse it, so the MME
        /// can answer duplicates from its ack cache instead of switching
        /// the path twice.
        #[serde(rename = "tx")]
        txid: u32,
    },
    /// MME → target eNB: path switch complete; carries any updated uplink
    /// F-TEIDs the target must use from now on.
    #[serde(rename = "PSa")]
    PathSwitchRequestAck {
        /// Subscriber.
        imsi: Imsi,
        /// Updated bearer parameters (empty when nothing changed).
        erabs: Vec<ErabSetup>,
    },

    // ---- X2AP (eNB <-> eNB), over SCTP ----
    /// Source eNB → target eNB: prepare an incoming handover with the
    /// UE's current bearer set.
    #[serde(rename = "HOq")]
    X2HandoverRequest {
        /// Subscriber.
        imsi: Imsi,
        /// UE IP address (if already assigned).
        ue_addr: Option<Ipv4Addr>,
        /// Bearers to admit at the target.
        bearers: Vec<ErabSetup>,
        /// Procedure transaction id: a retransmitted request carries the
        /// same id and is re-acked with the already-admitted TEIDs.
        #[serde(rename = "tx")]
        txid: u32,
    },
    /// Target eNB → source eNB: handover admitted; the returned TEIDs
    /// double as the X2 downlink-forwarding tunnel endpoints.
    #[serde(rename = "HOa")]
    X2HandoverRequestAck {
        /// Subscriber.
        imsi: Imsi,
        /// (EBI, target-eNB TEID) per admitted bearer.
        erabs: Vec<(Ebi, Teid)>,
        /// Echo of the request's transaction id — lets the source discard
        /// acks of an attempt it has already cancelled.
        #[serde(rename = "tx")]
        txid: u32,
    },
    /// Source eNB → target eNB: abandon a prepared handover (the source's
    /// preparation guard — the TX2RELOCprep/overall analogue — expired
    /// without an ack). The target drops any admitted context.
    #[serde(rename = "HOc")]
    X2HandoverCancel {
        /// Subscriber.
        imsi: Imsi,
        /// Transaction id of the abandoned preparation.
        #[serde(rename = "tx")]
        txid: u32,
    },
    /// Source eNB → target eNB: PDCP sequence-number status at the moment
    /// of handover (lossless-handover bookkeeping).
    #[serde(rename = "SNS")]
    X2SnStatusTransfer {
        /// Subscriber.
        imsi: Imsi,
        /// Next expected downlink PDCP SN.
        dl_count: u32,
        /// Next expected uplink PDCP SN.
        ul_count: u32,
    },
    /// Target eNB → source eNB: path switch done; release the old UE
    /// context and stop forwarding.
    #[serde(rename = "XUR")]
    X2UeContextRelease {
        /// Subscriber.
        imsi: Imsi,
    },

    // ---- GTPv2-C (MME <-> GW-C) ----
    /// MME → GW-C: create the default-bearer session.
    #[serde(rename = "CSq")]
    CreateSessionRequest {
        /// Subscriber.
        imsi: Imsi,
    },
    /// GW-C → MME: session created.
    #[serde(rename = "CSp")]
    CreateSessionResponse {
        /// Subscriber.
        imsi: Imsi,
        /// Address assigned to the UE.
        ue_addr: Ipv4Addr,
        /// SGW-U S1 uplink TEID + address for the default bearer.
        erab: ErabSetup,
    },
    /// GW-C → MME: network-initiated dedicated bearer (paper step 2/3).
    #[serde(rename = "CBq")]
    CreateBearerRequest {
        /// Subscriber.
        imsi: Imsi,
        /// Bearer parameters, F-TEID pointing at the **local** GW-U.
        erab: ErabSetup,
    },
    /// MME → GW-C: dedicated bearer outcome.
    #[serde(rename = "CBp")]
    CreateBearerResponse {
        /// Subscriber.
        imsi: Imsi,
        /// Bearer id.
        ebi: Ebi,
        /// eNB downlink TEID.
        enb_teid: Teid,
        /// eNB address.
        enb_addr: Ipv4Addr,
    },
    /// GW-C → MME (relayed): delete a dedicated bearer.
    #[serde(rename = "DBq")]
    DeleteBearerRequest {
        /// Subscriber.
        imsi: Imsi,
        /// Bearer id.
        ebi: Ebi,
    },
    /// MME → GW-C: bearer deleted.
    #[serde(rename = "DBp")]
    DeleteBearerResponse {
        /// Subscriber.
        imsi: Imsi,
        /// Bearer id.
        ebi: Ebi,
    },
    /// MME → GW-C: flush every dedicated bearer of a subscriber whose
    /// radio context was released by a failure path (e.g. the
    /// path-switch fallback) without the per-bearer handshake — the
    /// radio side is already gone, so only the core flows need tearing
    /// down.
    #[serde(rename = "DBc")]
    DeleteBearerCommand {
        /// Subscriber.
        imsi: Imsi,
    },
    /// O&M / failure-detection plane → GW-C: a local GW-U died; flush
    /// every dedicated bearer anchored on it (the `DBc` stale-flow
    /// flush generalised to a whole switch). The dead switch's flow
    /// table died with it — and a restarted GW-U comes back empty — so
    /// no removal FlowMods are addressed to the failed GW-U itself.
    #[serde(rename = "GWUF")]
    GwuFailureIndication {
        /// Data-plane address of the failed local GW-U.
        gwu_addr: Ipv4Addr,
    },
    /// MME → GW-C: UE idle; release S1-U downlink path.
    #[serde(rename = "RABq")]
    ReleaseAccessBearersRequest {
        /// Subscriber.
        imsi: Imsi,
    },
    /// GW-C → MME: released.
    #[serde(rename = "RABp")]
    ReleaseAccessBearersResponse {
        /// Subscriber.
        imsi: Imsi,
    },
    /// MME → GW-C: (re)attach the eNB leg after service request.
    #[serde(rename = "MBq")]
    ModifyBearerRequest {
        /// Subscriber.
        imsi: Imsi,
        /// eNB downlink TEID.
        enb_teid: Teid,
        /// eNB address.
        enb_addr: Ipv4Addr,
    },
    /// GW-C → MME: modified.
    #[serde(rename = "MBp")]
    ModifyBearerResponse {
        /// Subscriber.
        imsi: Imsi,
    },
    /// SGW-U → GW-C: downlink data arrived for a released bearer (the
    /// tunnel id identifies the session); triggers paging.
    #[serde(rename = "DDNt")]
    DownlinkDataByTeid {
        /// S1 downlink TEID the packet carried.
        teid: Teid,
    },
    /// GW-C → MME: Downlink Data Notification for an idle subscriber.
    #[serde(rename = "DDN")]
    DownlinkDataNotification {
        /// Subscriber.
        imsi: Imsi,
    },
    /// MME → GW-C after a path switch: re-anchor every bearer's S1 leg on
    /// the target eNB (a Modify Bearer carrying the full bearer list).
    #[serde(rename = "BRq")]
    BearerRelocationRequest {
        /// Subscriber.
        imsi: Imsi,
        /// Target eNB S1 address.
        enb_addr: Ipv4Addr,
        /// (EBI, target-eNB downlink TEID) per bearer.
        enb_teids: Vec<(Ebi, Teid)>,
    },
    /// GW-C → MME: relocation outcome — re-anchored bearers keep their
    /// uplink F-TEIDs; bearers the target cell cannot serve (no local
    /// GW-U) are listed in `released`.
    #[serde(rename = "BRp")]
    BearerRelocationResponse {
        /// Subscriber.
        imsi: Imsi,
        /// Updated bearer parameters for the target eNB (may be empty).
        erabs: Vec<ErabSetup>,
        /// Dedicated bearers torn down because the target has no MEC path.
        released: Vec<Ebi>,
    },

    // ---- Diameter (MRS/AF -> PCRF -> PCEF, MME -> HSS) ----
    /// Rx AAR: the MRS (an AF) requests resources for a CI flow.
    #[serde(rename = "RxQ")]
    RxAuthRequest {
        /// Policy rule describing the flow.
        rule: PolicyRule,
    },
    /// Rx AAA: PCRF answer.
    #[serde(rename = "RxA")]
    RxAuthAnswer {
        /// Service the answer refers to.
        service_id: u32,
        /// Accepted?
        ok: bool,
    },
    /// Gx RAR: PCRF pushes a rule to the PCEF.
    #[serde(rename = "GxQ")]
    GxReauthRequest {
        /// The rule.
        rule: PolicyRule,
    },
    /// Gx RAA: PCEF answer.
    #[serde(rename = "GxA")]
    GxReauthAnswer {
        /// Service the answer refers to.
        service_id: u32,
        /// Installed?
        ok: bool,
    },
    /// S6a Authentication-Information-Request (MME → HSS).
    #[serde(rename = "AIR")]
    S6aAuthInfoRequest {
        /// Subscriber.
        imsi: Imsi,
    },
    /// S6a Authentication-Information-Answer (HSS → MME).
    #[serde(rename = "AIA")]
    S6aAuthInfoAnswer {
        /// Subscriber.
        imsi: Imsi,
        /// Is the subscriber known/authorized?
        ok: bool,
    },

    // ---- OpenFlow (GW-C -> GW-U) ----
    /// Install or remove a flow rule on a GW-U.
    #[serde(rename = "FM")]
    FlowMod {
        /// Add (true) or delete (false).
        add: bool,
        /// Rule priority.
        priority: u16,
        /// Match spec.
        mtch: FlowMatchSpec,
        /// Actions.
        actions: Vec<FlowActionSpec>,
    },

    // ---- RRC/NAS over the radio (UE <-> eNB) ----
    /// NAS attach request (UE → eNB, piggybacked on RRC).
    #[serde(rename = "RAq")]
    RrcAttachRequest {
        /// Subscriber.
        imsi: Imsi,
    },
    /// NAS service request (idle → active).
    #[serde(rename = "RSq")]
    RrcServiceRequest {
        /// Subscriber.
        imsi: Imsi,
    },
    /// RRC Connection Reconfiguration: carries the new radio bearer id,
    /// QoS and **the uplink TFT** the modem will classify with (paper
    /// step 3).
    #[serde(rename = "RRc")]
    RrcReconfiguration {
        /// Bearer id.
        ebi: Ebi,
        /// QoS class.
        qci: Qci,
        /// Uplink TFT (empty = match-nothing for default bearer).
        tft: Tft,
        /// UE address (assigned at attach).
        ue_addr: Option<Ipv4Addr>,
    },
    /// RRC release (network told UE to go idle).
    #[serde(rename = "RRl")]
    RrcRelease {
        /// Subscriber.
        imsi: Imsi,
    },
    /// RRC-side removal of one dedicated bearer.
    #[serde(rename = "RBR")]
    RrcBearerRelease {
        /// Bearer to drop.
        ebi: Ebi,
    },
    /// Paging indication on the radio (PCH).
    #[serde(rename = "RPG")]
    RrcPaging {
        /// Subscriber being paged.
        imsi: Imsi,
    },
    /// UE → serving eNB: A3-event measurement report (a neighbour cell is
    /// offset-better than the serving cell). RSRP in centi-dBm keeps the
    /// wire format integer-exact.
    #[serde(rename = "RMR")]
    RrcMeasurementReport {
        /// Subscriber.
        imsi: Imsi,
        /// Serving-cell RSRP, centi-dBm.
        serving_rsrp_cdbm: i32,
        /// Radio address of the reported neighbour cell.
        target_radio: Ipv4Addr,
        /// Neighbour-cell RSRP, centi-dBm.
        target_rsrp_cdbm: i32,
    },
    /// Source eNB → UE: retune to the target cell (the RRC reconfiguration
    /// with `mobilityControlInfo`).
    #[serde(rename = "RHC")]
    RrcHandoverCommand {
        /// Subscriber.
        imsi: Imsi,
        /// Radio address of the target cell.
        target_radio: Ipv4Addr,
    },
    /// UE → target eNB: synchronized on the new cell (RRC reconfiguration
    /// complete).
    #[serde(rename = "RHF")]
    RrcHandoverConfirm {
        /// Subscriber.
        imsi: Imsi,
    },
    /// UE → eNB: the T304 analogue expired without downlink progress (the
    /// HandoverCommand or the post-handover path never materialised); the
    /// UE re-establishes on the cell it can still hear.
    #[serde(rename = "REq")]
    RrcReestablishmentRequest {
        /// Subscriber.
        imsi: Imsi,
    },
    /// eNB → UE: re-establishment accepted; the UE resumes on this cell.
    #[serde(rename = "REc")]
    RrcReestablishmentConfirm {
        /// Subscriber.
        imsi: Imsi,
    },
}

impl ControlMsg {
    /// Protocol family (decides transport and byte accounting bucket).
    pub fn protocol(&self) -> Protocol {
        use ControlMsg::*;
        match self {
            InitialUeAttach { .. }
            | InitialUeServiceRequest { .. }
            | InitialContextSetupRequest { .. }
            | InitialContextSetupResponse { .. }
            | DownlinkNasAccept { .. }
            | ErabSetupRequest { .. }
            | ErabSetupResponse { .. }
            | ErabReleaseCommand { .. }
            | ErabReleaseResponse { .. }
            | UeContextReleaseRequest { .. }
            | UeContextReleaseCommand { .. }
            | UeContextReleaseComplete { .. }
            | Paging { .. }
            | PathSwitchRequest { .. }
            | PathSwitchRequestAck { .. } => Protocol::S1apSctp,
            X2HandoverRequest { .. }
            | X2HandoverRequestAck { .. }
            | X2HandoverCancel { .. }
            | X2SnStatusTransfer { .. }
            | X2UeContextRelease { .. } => Protocol::X2Sctp,
            CreateSessionRequest { .. }
            | CreateSessionResponse { .. }
            | CreateBearerRequest { .. }
            | CreateBearerResponse { .. }
            | DeleteBearerRequest { .. }
            | DeleteBearerResponse { .. }
            | DeleteBearerCommand { .. }
            | GwuFailureIndication { .. }
            | ReleaseAccessBearersRequest { .. }
            | ReleaseAccessBearersResponse { .. }
            | ModifyBearerRequest { .. }
            | ModifyBearerResponse { .. }
            | DownlinkDataByTeid { .. }
            | DownlinkDataNotification { .. }
            | BearerRelocationRequest { .. }
            | BearerRelocationResponse { .. } => Protocol::Gtpv2,
            RxAuthRequest { .. }
            | RxAuthAnswer { .. }
            | GxReauthRequest { .. }
            | GxReauthAnswer { .. }
            | S6aAuthInfoRequest { .. }
            | S6aAuthInfoAnswer { .. } => Protocol::Diameter,
            FlowMod { .. } => Protocol::OpenFlow,
            RrcAttachRequest { .. }
            | RrcServiceRequest { .. }
            | RrcReconfiguration { .. }
            | RrcRelease { .. }
            | RrcBearerRelease { .. }
            | RrcPaging { .. }
            | RrcMeasurementReport { .. }
            | RrcHandoverCommand { .. }
            | RrcHandoverConfirm { .. }
            | RrcReestablishmentRequest { .. }
            | RrcReestablishmentConfirm { .. } => Protocol::Rrc,
        }
    }

    /// Short message name for logs.
    pub fn name(&self) -> &'static str {
        use ControlMsg::*;
        match self {
            InitialUeAttach { .. } => "InitialUE(Attach)",
            InitialUeServiceRequest { .. } => "InitialUE(ServiceRequest)",
            InitialContextSetupRequest { .. } => "InitialContextSetupRequest",
            InitialContextSetupResponse { .. } => "InitialContextSetupResponse",
            DownlinkNasAccept { .. } => "DownlinkNAS(Accept)",
            ErabSetupRequest { .. } => "E-RABSetupRequest",
            ErabSetupResponse { .. } => "E-RABSetupResponse",
            ErabReleaseCommand { .. } => "E-RABReleaseCommand",
            ErabReleaseResponse { .. } => "E-RABReleaseResponse",
            UeContextReleaseRequest { .. } => "UEContextReleaseRequest",
            UeContextReleaseCommand { .. } => "UEContextReleaseCommand",
            UeContextReleaseComplete { .. } => "UEContextReleaseComplete",
            Paging { .. } => "Paging",
            PathSwitchRequest { .. } => "PathSwitchRequest",
            PathSwitchRequestAck { .. } => "PathSwitchRequestAcknowledge",
            X2HandoverRequest { .. } => "X2HandoverRequest",
            X2HandoverRequestAck { .. } => "X2HandoverRequestAcknowledge",
            X2HandoverCancel { .. } => "X2HandoverCancel",
            X2SnStatusTransfer { .. } => "X2SnStatusTransfer",
            X2UeContextRelease { .. } => "X2UEContextRelease",
            CreateSessionRequest { .. } => "CreateSessionRequest",
            CreateSessionResponse { .. } => "CreateSessionResponse",
            CreateBearerRequest { .. } => "CreateBearerRequest",
            CreateBearerResponse { .. } => "CreateBearerResponse",
            DeleteBearerRequest { .. } => "DeleteBearerRequest",
            DeleteBearerResponse { .. } => "DeleteBearerResponse",
            DeleteBearerCommand { .. } => "DeleteBearerCommand",
            GwuFailureIndication { .. } => "GwuFailureIndication",
            ReleaseAccessBearersRequest { .. } => "ReleaseAccessBearersRequest",
            ReleaseAccessBearersResponse { .. } => "ReleaseAccessBearersResponse",
            ModifyBearerRequest { .. } => "ModifyBearerRequest",
            ModifyBearerResponse { .. } => "ModifyBearerResponse",
            DownlinkDataByTeid { .. } => "DownlinkDataNotification(TEID)",
            DownlinkDataNotification { .. } => "DownlinkDataNotification",
            BearerRelocationRequest { .. } => "BearerRelocationRequest",
            BearerRelocationResponse { .. } => "BearerRelocationResponse",
            RxAuthRequest { .. } => "Rx-AAR",
            RxAuthAnswer { .. } => "Rx-AAA",
            GxReauthRequest { .. } => "Gx-RAR",
            GxReauthAnswer { .. } => "Gx-RAA",
            S6aAuthInfoRequest { .. } => "S6a-AIR",
            S6aAuthInfoAnswer { .. } => "S6a-AIA",
            FlowMod { add: true, .. } => "FlowMod(add)",
            FlowMod { add: false, .. } => "FlowMod(del)",
            RrcAttachRequest { .. } => "RRC(AttachRequest)",
            RrcServiceRequest { .. } => "RRC(ServiceRequest)",
            RrcReconfiguration { .. } => "RRCConnectionReconfiguration",
            RrcRelease { .. } => "RRCConnectionRelease",
            RrcBearerRelease { .. } => "RRC(BearerRelease)",
            RrcPaging { .. } => "RRC(Paging)",
            RrcMeasurementReport { .. } => "RRC(MeasurementReport)",
            RrcHandoverCommand { .. } => "RRC(HandoverCommand)",
            RrcHandoverConfirm { .. } => "RRC(HandoverConfirm)",
            RrcReestablishmentRequest { .. } => "RRC(ReestablishmentRequest)",
            RrcReestablishmentConfirm { .. } => "RRC(ReestablishmentConfirm)",
        }
    }

    /// Calibrated total on-the-wire size (IP + transport + message) in
    /// bytes. The idle-release + re-establishment sequence sums to the
    /// paper's measured 2914 bytes; see module docs.
    pub fn wire_size_spec(&self) -> u32 {
        use ControlMsg::*;
        match self {
            // S1AP/SCTP — the §4 sequence uses the six marked (*) messages:
            InitialUeAttach { .. } => 140,
            InitialUeServiceRequest { .. } => 120,     // (*)
            InitialContextSetupRequest { .. } => 280,  // (*)
            InitialContextSetupResponse { .. } => 120, // (*)
            DownlinkNasAccept { .. } => 110,           // (*)
            ErabSetupRequest { .. } => 300,
            ErabSetupResponse { .. } => 130,
            ErabReleaseCommand { .. } => 120,
            ErabReleaseResponse { .. } => 110,
            UeContextReleaseRequest { .. } => 140,  // (*)
            UeContextReleaseCommand { .. } => 180,  // (*)
            UeContextReleaseComplete { .. } => 188, // (*)
            Paging { .. } => 110,
            PathSwitchRequest { .. } => 150,
            PathSwitchRequestAck { .. } => 260,
            // X2AP (handover preparation/execution, not in the §4 counts).
            X2HandoverRequest { .. } => 420,
            X2HandoverRequestAck { .. } => 120,
            X2HandoverCancel { .. } => 90,
            X2SnStatusTransfer { .. } => 110,
            X2UeContextRelease { .. } => 80,
            // GTPv2 — §4 sequence: Release pair + Modify pair = 352 bytes.
            CreateSessionRequest { .. } => 220,
            CreateSessionResponse { .. } => 260,
            CreateBearerRequest { .. } => 240,
            CreateBearerResponse { .. } => 130,
            DeleteBearerRequest { .. } => 95,
            DeleteBearerResponse { .. } => 90,
            DeleteBearerCommand { .. } => 85,
            GwuFailureIndication { .. } => 70,
            ReleaseAccessBearersRequest { .. } => 70, // (*)
            ReleaseAccessBearersResponse { .. } => 70, // (*)
            ModifyBearerRequest { .. } => 120,        // (*)
            ModifyBearerResponse { .. } => 92,        // (*)
            DownlinkDataByTeid { .. } => 66,
            DownlinkDataNotification { .. } => 70,
            BearerRelocationRequest { .. } => 120,
            BearerRelocationResponse { .. } => 240,
            // Diameter.
            RxAuthRequest { .. } => 320,
            RxAuthAnswer { .. } => 180,
            GxReauthRequest { .. } => 340,
            GxReauthAnswer { .. } => 190,
            S6aAuthInfoRequest { .. } => 230,
            S6aAuthInfoAnswer { .. } => 300,
            // OpenFlow — §4 sequence: 2 deletes + 2 adds = 1424 bytes.
            FlowMod { add, .. } => {
                if *add {
                    400 // (*)
                } else {
                    312 // (*)
                }
            }
            // RRC (radio side, not in the §4 core counts).
            RrcAttachRequest { .. } => 90,
            RrcServiceRequest { .. } => 70,
            RrcReconfiguration { .. } => 210,
            RrcRelease { .. } => 60,
            RrcBearerRelease { .. } => 70,
            RrcPaging { .. } => 60,
            RrcMeasurementReport { .. } => 140,
            RrcHandoverCommand { .. } => 96,
            RrcHandoverConfirm { .. } => 64,
            RrcReestablishmentRequest { .. } => 72,
            RrcReestablishmentConfirm { .. } => 88,
        }
    }

    /// Byte length of this message as compact JSON: the payload length
    /// its calibrated wire size assumes.
    pub fn json_len(&self) -> usize {
        Wire::json_len(self)
    }

    /// Encode into a packet from `src` to `dst`, with transport chosen by
    /// protocol family and wire size padded to [`Self::wire_size_spec`].
    pub fn into_packet(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Packet {
        let (protocol, port) = self.transport();
        let mut pkt = Packet {
            src,
            dst,
            src_port: port,
            dst_port: port,
            protocol,
            tos: 0,
            payload: Bytes::from(codec::encode(self)),
            app_len: 0,
            id: 0,
            created: acacia_simnet::time::Instant::ZERO,
        };
        pkt.app_len = self.padding(pkt.wire_size(), pkt.payload.len());
        pkt
    }

    /// Virtual bytes that bring a packet of `bare` wire bytes, `body` of
    /// them this message's encoding, to its modelled size: the calibrated
    /// spec, or the natural size (header plus [`Self::json_len`]) for
    /// unusually information-dense messages (e.g. a TFT with many
    /// filters) that exceed it.
    pub(crate) fn padding(&self, bare: u32, body: usize) -> u32 {
        let natural = bare - body as u32 + self.json_len() as u32;
        self.wire_size_spec().max(natural) - bare
    }

    /// IP protocol and port of the message's family.
    fn transport(&self) -> (u8, u16) {
        match self.protocol() {
            Protocol::S1apSctp => (proto::SCTP, ports::S1AP),
            Protocol::X2Sctp => (proto::SCTP, ports::X2AP),
            Protocol::Gtpv2 => (proto::UDP, ports::GTPC),
            Protocol::OpenFlow => (proto::TCP, ports::OPENFLOW),
            Protocol::Diameter => (proto::TCP, ports::DIAMETER),
            Protocol::Rrc => (proto::UDP, ports::S1AP + 1),
        }
    }

    /// Decode a control message from a packet payload.
    pub fn decode(payload: &[u8]) -> Option<ControlMsg> {
        codec::decode(payload)
    }

    /// Decode from a packet.
    pub fn from_packet(pkt: &Packet) -> Option<ControlMsg> {
        Self::decode(&pkt.payload)
    }
}

/// The fault-injection class of every packet carrying a message of
/// `kind`'s variant (its fields are ignored): the family's protocol and
/// port, and the variant's tag byte at its framing offset — byte 0 of a
/// core message, byte 1 of an RRC radio frame.
pub fn fault_class(kind: &ControlMsg) -> PacketClass {
    let tag = codec::encode(kind)[0];
    match kind.protocol() {
        Protocol::Rrc => PacketClass::protocol(crate::radio::RADIO_PROTO)
            .with_payload_prefix(&[crate::radio::FRAME_RRC, tag]),
        _ => {
            let (protocol, port) = kind.transport();
            PacketClass::protocol(protocol)
                .with_dst_port(port)
                .with_payload_prefix(&[tag])
        }
    }
}

// ---- Binary layout ----
//
// Tags number the variants in declaration order; fields follow in
// declaration order. The `as` names are the JSON keys and variant tags
// the calibrated sizes were measured with.

wire_newtype!(Imsi, Ebi, Teid, Qci);

wire_struct!(ErabSetup {
    ebi,
    qci,
    gw_teid,
    gw_addr,
    tft
});

wire_struct!(PolicyRule {
    service_id,
    ue_addr,
    server_addr,
    server_port,
    qci,
    install
});

wire_struct!(FlowMatchSpec {
    teid if some,
    dst if some,
    src if some
});

wire_struct!(Tft { filters as "f" });

wire_struct!(PacketFilter {
    precedence as "p",
    direction as "d",
    remote_addr as "a" if some,
    remote_port as "r" if some,
    protocol as "x" if some
});

impl Wire for Direction {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Direction::Uplink => 0,
            Direction::Downlink => 1,
            Direction::Bidirectional => 2,
        });
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => Direction::Uplink,
            1 => Direction::Downlink,
            2 => Direction::Bidirectional,
            _ => return None,
        })
    }
    fn json_len(&self) -> usize {
        3 // "U", "D" or "B"
    }
}

impl Wire for FlowActionSpec {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            FlowActionSpec::GtpEncap { peer, teid } => {
                out.push(0);
                peer.put(out);
                teid.put(out);
            }
            FlowActionSpec::GtpDecap => out.push(1),
            FlowActionSpec::SetTos { tos } => {
                out.push(2);
                tos.put(out);
            }
            FlowActionSpec::Output { port } => {
                out.push(3);
                port.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => FlowActionSpec::GtpEncap {
                peer: Wire::get(r)?,
                teid: Wire::get(r)?,
            },
            1 => FlowActionSpec::GtpDecap,
            2 => FlowActionSpec::SetTos { tos: r.u8()? },
            3 => FlowActionSpec::Output {
                port: Wire::get(r)?,
            },
            _ => return None,
        })
    }
    fn json_len(&self) -> usize {
        let o = JsonObject::new();
        match self {
            FlowActionSpec::GtpEncap { peer, teid } => json_variant(
                "GtpEncap",
                o.field("peer", peer).field("teid", teid).finish(),
            ),
            FlowActionSpec::GtpDecap => "\"GtpDecap\"".len(),
            FlowActionSpec::SetTos { tos } => json_variant("SetTos", o.field("tos", tos).finish()),
            FlowActionSpec::Output { port } => {
                json_variant("Output", o.field("port", port).finish())
            }
        }
    }
}

wire_enum!(ControlMsg {
    0 InitialUeAttach as "IUA" { imsi },
    1 InitialUeServiceRequest as "IUS" { imsi },
    2 InitialContextSetupRequest as "ICSq" { imsi, erabs },
    3 InitialContextSetupResponse as "ICSp" { imsi, enb_teids },
    4 DownlinkNasAccept as "DNA" { imsi, ue_addr },
    5 ErabSetupRequest as "ESq" { imsi, erab },
    6 ErabSetupResponse as "ESp" { imsi, ebi, enb_teid },
    7 ErabReleaseCommand as "ERC" { imsi, ebi },
    8 ErabReleaseResponse as "ERR" { imsi, ebi },
    9 UeContextReleaseRequest as "UCRq" { imsi },
    10 UeContextReleaseCommand as "UCRc" { imsi },
    11 UeContextReleaseComplete as "UCRd" { imsi },
    12 Paging as "PAG" { imsi },
    13 PathSwitchRequest as "PSq" { imsi, enb_addr, erabs, txid as "tx" },
    14 PathSwitchRequestAck as "PSa" { imsi, erabs },
    15 X2HandoverRequest as "HOq" { imsi, ue_addr, bearers, txid as "tx" },
    16 X2HandoverRequestAck as "HOa" { imsi, erabs, txid as "tx" },
    17 X2HandoverCancel as "HOc" { imsi, txid as "tx" },
    18 X2SnStatusTransfer as "SNS" { imsi, dl_count, ul_count },
    19 X2UeContextRelease as "XUR" { imsi },
    20 CreateSessionRequest as "CSq" { imsi },
    21 CreateSessionResponse as "CSp" { imsi, ue_addr, erab },
    22 CreateBearerRequest as "CBq" { imsi, erab },
    23 CreateBearerResponse as "CBp" { imsi, ebi, enb_teid, enb_addr },
    24 DeleteBearerRequest as "DBq" { imsi, ebi },
    25 DeleteBearerResponse as "DBp" { imsi, ebi },
    26 DeleteBearerCommand as "DBc" { imsi },
    27 GwuFailureIndication as "GWUF" { gwu_addr },
    28 ReleaseAccessBearersRequest as "RABq" { imsi },
    29 ReleaseAccessBearersResponse as "RABp" { imsi },
    30 ModifyBearerRequest as "MBq" { imsi, enb_teid, enb_addr },
    31 ModifyBearerResponse as "MBp" { imsi },
    32 DownlinkDataByTeid as "DDNt" { teid },
    33 DownlinkDataNotification as "DDN" { imsi },
    34 BearerRelocationRequest as "BRq" { imsi, enb_addr, enb_teids },
    35 BearerRelocationResponse as "BRp" { imsi, erabs, released },
    36 RxAuthRequest as "RxQ" { rule },
    37 RxAuthAnswer as "RxA" { service_id, ok },
    38 GxReauthRequest as "GxQ" { rule },
    39 GxReauthAnswer as "GxA" { service_id, ok },
    40 S6aAuthInfoRequest as "AIR" { imsi },
    41 S6aAuthInfoAnswer as "AIA" { imsi, ok },
    42 FlowMod as "FM" { add, priority, mtch, actions },
    43 RrcAttachRequest as "RAq" { imsi },
    44 RrcServiceRequest as "RSq" { imsi },
    45 RrcReconfiguration as "RRc" { ebi, qci, tft, ue_addr },
    46 RrcRelease as "RRl" { imsi },
    47 RrcBearerRelease as "RBR" { ebi },
    48 RrcPaging as "RPG" { imsi },
    49 RrcMeasurementReport as "RMR" {
        imsi,
        serving_rsrp_cdbm,
        target_radio,
        target_rsrp_cdbm
    },
    50 RrcHandoverCommand as "RHC" { imsi, target_radio },
    51 RrcHandoverConfirm as "RHF" { imsi },
    52 RrcReestablishmentRequest as "REq" { imsi },
    53 RrcReestablishmentConfirm as "REc" { imsi },
});

#[cfg(test)]
mod tests {
    use super::*;

    fn imsi() -> Imsi {
        Imsi(310_410_000_000_001)
    }

    fn sample_messages() -> Vec<ControlMsg> {
        use ControlMsg::*;
        let erab = ErabSetup {
            ebi: Ebi(6),
            qci: Qci(7),
            gw_teid: Teid(0x2001),
            gw_addr: Ipv4Addr::new(10, 2, 1, 1),
            tft: Tft::single(crate::tft::PacketFilter::to_host(Ipv4Addr::new(
                10, 4, 0, 1,
            ))),
        };
        vec![
            InitialUeAttach { imsi: imsi() },
            InitialUeServiceRequest { imsi: imsi() },
            InitialContextSetupRequest {
                imsi: imsi(),
                erabs: vec![erab.clone()],
            },
            InitialContextSetupResponse {
                imsi: imsi(),
                enb_teids: vec![(Ebi(5), Teid(0x3001))],
            },
            DownlinkNasAccept {
                imsi: imsi(),
                ue_addr: Some(Ipv4Addr::new(10, 10, 0, 1)),
            },
            ErabSetupRequest {
                imsi: imsi(),
                erab: erab.clone(),
            },
            ErabSetupResponse {
                imsi: imsi(),
                ebi: Ebi(6),
                enb_teid: Teid(0x3002),
            },
            UeContextReleaseRequest { imsi: imsi() },
            UeContextReleaseCommand { imsi: imsi() },
            UeContextReleaseComplete { imsi: imsi() },
            CreateSessionRequest { imsi: imsi() },
            CreateBearerRequest {
                imsi: imsi(),
                erab: erab.clone(),
            },
            ReleaseAccessBearersRequest { imsi: imsi() },
            ReleaseAccessBearersResponse { imsi: imsi() },
            ModifyBearerRequest {
                imsi: imsi(),
                enb_teid: Teid(0x3001),
                enb_addr: Ipv4Addr::new(10, 1, 0, 1),
            },
            ModifyBearerResponse { imsi: imsi() },
            RxAuthRequest {
                rule: PolicyRule {
                    service_id: 7,
                    ue_addr: Ipv4Addr::new(10, 10, 0, 1),
                    server_addr: Ipv4Addr::new(10, 4, 0, 1),
                    server_port: 9000,
                    qci: Qci(7),
                    install: true,
                },
            },
            FlowMod {
                add: true,
                priority: 100,
                mtch: FlowMatchSpec {
                    teid: Some(Teid(0x2001)),
                    dst: None,
                    src: None,
                },
                actions: vec![FlowActionSpec::GtpDecap, FlowActionSpec::Output { port: 2 }],
            },
            RrcReconfiguration {
                ebi: Ebi(6),
                qci: Qci(7),
                tft: erab.tft.clone(),
                ue_addr: None,
            },
            PathSwitchRequest {
                imsi: imsi(),
                enb_addr: Ipv4Addr::new(10, 1, 0, 2),
                erabs: vec![(Ebi(5), Teid(0x3005)), (Ebi(6), Teid(0x3006))],
                txid: 3,
            },
            PathSwitchRequestAck {
                imsi: imsi(),
                erabs: vec![erab.clone()],
            },
            X2HandoverRequest {
                imsi: imsi(),
                ue_addr: Some(Ipv4Addr::new(10, 10, 0, 1)),
                bearers: vec![erab.clone()],
                txid: 7,
            },
            X2HandoverRequestAck {
                imsi: imsi(),
                erabs: vec![(Ebi(5), Teid(0x3005)), (Ebi(6), Teid(0x3006))],
                txid: 7,
            },
            X2HandoverCancel {
                imsi: imsi(),
                txid: 7,
            },
            X2SnStatusTransfer {
                imsi: imsi(),
                dl_count: 421,
                ul_count: 197,
            },
            X2UeContextRelease { imsi: imsi() },
            BearerRelocationRequest {
                imsi: imsi(),
                enb_addr: Ipv4Addr::new(10, 1, 0, 2),
                enb_teids: vec![(Ebi(5), Teid(0x3005)), (Ebi(6), Teid(0x3006))],
            },
            BearerRelocationResponse {
                imsi: imsi(),
                erabs: vec![erab.clone()],
                released: vec![Ebi(6)],
            },
            RrcMeasurementReport {
                imsi: imsi(),
                serving_rsrp_cdbm: -9810,
                target_radio: Ipv4Addr::new(192, 168, 0, 2),
                target_rsrp_cdbm: -9120,
            },
            RrcHandoverCommand {
                imsi: imsi(),
                target_radio: Ipv4Addr::new(192, 168, 0, 2),
            },
            RrcHandoverConfirm { imsi: imsi() },
            RrcReestablishmentRequest { imsi: imsi() },
            RrcReestablishmentConfirm { imsi: imsi() },
            ErabReleaseCommand {
                imsi: imsi(),
                ebi: Ebi(6),
            },
            ErabReleaseResponse {
                imsi: imsi(),
                ebi: Ebi(6),
            },
            Paging { imsi: imsi() },
            CreateSessionResponse {
                imsi: imsi(),
                ue_addr: Ipv4Addr::new(10, 10, 0, 1),
                erab: erab.clone(),
            },
            CreateBearerResponse {
                imsi: imsi(),
                ebi: Ebi(6),
                enb_teid: Teid(0x3002),
                enb_addr: Ipv4Addr::new(10, 1, 0, 1),
            },
            DeleteBearerRequest {
                imsi: imsi(),
                ebi: Ebi(6),
            },
            DeleteBearerResponse {
                imsi: imsi(),
                ebi: Ebi(6),
            },
            DeleteBearerCommand { imsi: imsi() },
            GwuFailureIndication {
                gwu_addr: Ipv4Addr::new(10, 2, 1, 1),
            },
            DownlinkDataByTeid { teid: Teid(0x2002) },
            DownlinkDataNotification { imsi: imsi() },
            RxAuthAnswer {
                service_id: 7,
                ok: true,
            },
            GxReauthRequest {
                rule: PolicyRule {
                    service_id: 7,
                    ue_addr: Ipv4Addr::new(10, 10, 0, 1),
                    server_addr: Ipv4Addr::new(10, 4, 0, 1),
                    server_port: 9000,
                    qci: Qci(7),
                    install: false,
                },
            },
            GxReauthAnswer {
                service_id: 7,
                ok: false,
            },
            S6aAuthInfoRequest { imsi: imsi() },
            S6aAuthInfoAnswer {
                imsi: imsi(),
                ok: true,
            },
            FlowMod {
                add: false,
                priority: 100,
                mtch: FlowMatchSpec {
                    teid: None,
                    dst: Some(Ipv4Addr::new(10, 10, 0, 1)),
                    src: Some(Ipv4Addr::new(10, 4, 0, 1)),
                },
                actions: vec![],
            },
            RrcAttachRequest { imsi: imsi() },
            RrcServiceRequest { imsi: imsi() },
            RrcRelease { imsi: imsi() },
            RrcBearerRelease { ebi: Ebi(6) },
            RrcPaging { imsi: imsi() },
        ]
    }

    /// How a message travels: RRC in a radio frame, the rest in a
    /// control packet.
    fn as_sent(msg: &ControlMsg) -> Packet {
        let (a, b) = (Ipv4Addr::new(10, 1, 0, 1), Ipv4Addr::new(10, 3, 0, 1));
        match msg.protocol() {
            Protocol::Rrc => crate::radio::rrc_frame(msg, a, b),
            _ => msg.into_packet(a, b),
        }
    }

    #[test]
    fn samples_cover_every_kind() {
        let tags: std::collections::BTreeSet<u8> = sample_messages()
            .iter()
            .map(|m| codec::encode(m)[0])
            .collect();
        assert_eq!(tags, (0..=53).collect());
    }

    #[test]
    fn fault_class_matches_exactly_its_kind() {
        let samples = sample_messages();
        let packets: Vec<Packet> = samples.iter().map(as_sent).collect();
        for kind in &samples {
            let class = fault_class(kind);
            for (msg, pkt) in samples.iter().zip(&packets) {
                let same = codec::encode(kind)[0] == codec::encode(msg)[0];
                assert_eq!(
                    class.matches(pkt),
                    same,
                    "class of {} on {}",
                    kind.name(),
                    msg.name()
                );
            }
        }
        // Data sharing a control message's links never matches: a radio
        // data frame whose bearer id equals an RRC tag, a GTP-U packet.
        let rhc = ControlMsg::RrcHandoverCommand {
            imsi: imsi(),
            target_radio: Ipv4Addr::new(192, 168, 0, 2),
        };
        let tag = codec::encode(&rhc)[0];
        let user = Packet::udp(
            (Ipv4Addr::new(10, 10, 0, 1), 1),
            (Ipv4Addr::new(10, 4, 0, 1), 2),
            100,
        );
        let a = Ipv4Addr::new(10, 1, 0, 1);
        let data = crate::radio::data_frame(Ebi(tag), &user, a, a);
        assert!(!fault_class(&rhc).matches(&data));
        let tunnelled = crate::gtpu::encapsulate(&user, Teid(7), a, a);
        for kind in &samples {
            assert!(!fault_class(kind).matches(&tunnelled), "{}", kind.name());
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for msg in sample_messages() {
            let pkt = msg.into_packet(Ipv4Addr::new(10, 1, 0, 1), Ipv4Addr::new(10, 3, 0, 1));
            let back = ControlMsg::from_packet(&pkt).expect("decodes");
            assert_eq!(back, msg, "roundtrip of {}", msg.name());
        }
    }

    #[test]
    fn json_len_matches_serde_json() {
        for msg in sample_messages() {
            let json = serde_json::to_vec(&msg).unwrap();
            assert_eq!(
                msg.json_len(),
                json.len(),
                "{}",
                String::from_utf8_lossy(&json)
            );
        }
    }

    #[test]
    fn wire_sizes_match_spec_exactly() {
        for msg in sample_messages() {
            let pkt = as_sent(&msg);
            assert_eq!(
                pkt.wire_size(),
                msg.wire_size_spec(),
                "wire size of {}",
                msg.name()
            );
        }
    }

    #[test]
    fn section4_sequence_totals() {
        // The exact §4 release + re-establish sequence: 15 messages,
        // 2914 bytes split SCTP 7/1138, GTPv2 4/352, OpenFlow 4/1424.
        use ControlMsg::*;
        let del = |_: u32| FlowMod {
            add: false,
            priority: 100,
            mtch: FlowMatchSpec {
                teid: Some(Teid(1)),
                dst: None,
                src: None,
            },
            actions: vec![],
        };
        let add = |_: u32| FlowMod {
            add: true,
            priority: 100,
            mtch: FlowMatchSpec {
                teid: Some(Teid(1)),
                dst: None,
                src: None,
            },
            actions: vec![
                FlowActionSpec::GtpEncap {
                    peer: Ipv4Addr::new(10, 1, 0, 1),
                    teid: Teid(2),
                },
                FlowActionSpec::Output { port: 1 },
            ],
        };
        let seq: Vec<ControlMsg> = vec![
            // Release.
            UeContextReleaseRequest { imsi: imsi() },
            ReleaseAccessBearersRequest { imsi: imsi() },
            ReleaseAccessBearersResponse { imsi: imsi() },
            UeContextReleaseCommand { imsi: imsi() },
            UeContextReleaseComplete { imsi: imsi() },
            del(1),
            del(2),
            // Re-establish.
            InitialUeServiceRequest { imsi: imsi() },
            InitialContextSetupRequest {
                imsi: imsi(),
                erabs: vec![],
            },
            InitialContextSetupResponse {
                imsi: imsi(),
                enb_teids: vec![(Ebi(5), Teid(0x3001))],
            },
            DownlinkNasAccept {
                imsi: imsi(),
                ue_addr: None,
            },
            ModifyBearerRequest {
                imsi: imsi(),
                enb_teid: Teid(0x3001),
                enb_addr: Ipv4Addr::new(10, 1, 0, 1),
            },
            ModifyBearerResponse { imsi: imsi() },
            add(1),
            add(2),
        ];
        assert_eq!(seq.len(), 15);
        let mut by_proto: std::collections::HashMap<&'static str, (u32, u32)> = Default::default();
        for m in &seq {
            let e = by_proto.entry(m.protocol().name()).or_default();
            e.0 += 1;
            e.1 += m.wire_size_spec();
        }
        assert_eq!(by_proto["SCTP"], (7, 1138));
        assert_eq!(by_proto["GTPv2"], (4, 352));
        assert_eq!(by_proto["OpenFlow"], (4, 1424));
        let total: u32 = seq.iter().map(|m| m.wire_size_spec()).sum();
        assert_eq!(total, 2914);
    }

    #[test]
    fn protocol_families_use_expected_transports() {
        let m = ControlMsg::UeContextReleaseRequest { imsi: imsi() };
        let p = m.into_packet(Ipv4Addr::new(10, 1, 0, 1), Ipv4Addr::new(10, 3, 0, 1));
        assert_eq!(p.protocol, proto::SCTP);
        assert_eq!(p.dst_port, ports::S1AP);

        let m = ControlMsg::ModifyBearerResponse { imsi: imsi() };
        let p = m.into_packet(Ipv4Addr::new(10, 3, 0, 2), Ipv4Addr::new(10, 3, 0, 1));
        assert_eq!(p.protocol, proto::UDP);
        assert_eq!(p.dst_port, ports::GTPC);

        let m = ControlMsg::FlowMod {
            add: true,
            priority: 1,
            mtch: FlowMatchSpec {
                teid: None,
                dst: None,
                src: None,
            },
            actions: vec![],
        };
        let p = m.into_packet(Ipv4Addr::new(10, 3, 0, 2), Ipv4Addr::new(10, 2, 0, 1));
        assert_eq!(p.protocol, proto::TCP);
        assert_eq!(p.dst_port, ports::OPENFLOW);

        let m = ControlMsg::X2UeContextRelease { imsi: imsi() };
        let p = m.into_packet(Ipv4Addr::new(10, 1, 0, 2), Ipv4Addr::new(10, 1, 0, 1));
        assert_eq!(p.protocol, proto::SCTP);
        assert_eq!(p.dst_port, ports::X2AP);
    }
}
