//! Application-level messages exchanged between the CI app on the UE, the
//! MRS and the CI (AR) server — serialized into packet payloads like any
//! real application protocol, in the binary layout of
//! [`acacia_simnet::codec`]. Each packet's wire size stays what the
//! model was calibrated with: the message's compact-JSON length
//! ([`AppMsg::json_len`]) plus any modelled extra bytes.

use acacia_simnet::codec::{self, json_variant, JsonObject, Reader, Wire};
use acacia_simnet::packet::{proto, Packet};
use acacia_simnet::time::Instant;
use acacia_simnet::wire_enum;
use acacia_vision::compress::Codec;
use acacia_vision::image::{ImageSpec, Resolution};
use bytes::Bytes;
use serde::Serialize;
use std::net::Ipv4Addr;

/// UDP port of the AR server (frames, chunks, results, rxPower reports).
pub const AR_PORT: u16 = 9000;
/// UDP port of the MRS.
pub const MRS_PORT: u16 = 8000;
/// UDP port CI apps bind on the UE.
pub const APP_PORT: u16 = 9000;

/// Frame metadata carried on the first chunk of each frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FrameMeta {
    /// Capture description (lets the synthetic server reconstruct the
    /// frame's features deterministically).
    pub spec: ImageSpec,
    /// Codec the frame was encoded with.
    pub codec: Codec,
    /// Seed individualizing this frame's view noise.
    pub view_seed: u64,
    /// Capture timestamp at the client (nanoseconds of sim time).
    pub captured_at_nanos: u64,
}

/// Application messages.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum AppMsg {
    /// One window chunk of an uploaded camera frame.
    FrameChunk {
        /// Frame sequence number.
        seq: u64,
        /// Chunk index within the frame.
        chunk: u32,
        /// Total chunks in this frame.
        total_chunks: u32,
        /// Frame metadata (present on chunk 0 only).
        #[serde(skip_serializing_if = "Option::is_none")]
        meta: Option<FrameMeta>,
    },
    /// Server acknowledgement of a chunk (clocks the upload window).
    ChunkAck {
        /// Frame sequence number.
        seq: u64,
        /// Chunk being acknowledged.
        chunk: u32,
    },
    /// AR result for a completed frame.
    FrameResult {
        /// Frame sequence number.
        seq: u64,
        /// Matched object tag, if any.
        matched: Option<String>,
        /// Server-side SURF + decode time, seconds (virtual).
        compute_s: f64,
        /// Server-side matching time, seconds (virtual).
        match_s: f64,
        /// Candidate objects examined.
        candidates: usize,
    },
    /// LTE-direct rxPower report for the localization manager.
    RxReport {
        /// Landmark name.
        landmark: String,
        /// Received power, dBm.
        rx_power_dbm: f64,
    },
    /// Device manager → MRS: request MEC connectivity for a service.
    MrsRequest {
        /// Service name discovered over LTE-direct.
        service: String,
        /// Requesting UE's IP.
        ue_addr: Ipv4Addr,
        /// Create (true) or delete (false) connectivity.
        create: bool,
    },
    /// CI server → MRS: periodic liveness beat for the lease table. A
    /// server that stops beating is evicted from service resolution
    /// after the MRS misses N of its last M lease audits.
    Heartbeat {
        /// Service the server is registered under (diagnostic; liveness
        /// is tracked per server address).
        service: String,
        /// The beating server's address.
        server: Ipv4Addr,
    },
    /// MRS → device manager: connectivity outcome.
    MrsAck {
        /// Service the answer refers to.
        service: String,
        /// Was a bearer (de)activated?
        ok: bool,
        /// Address of the selected CI server.
        server: Option<Ipv4Addr>,
    },
}

impl AppMsg {
    /// Byte length of this message as compact JSON: the payload length
    /// its modelled wire size assumes.
    pub fn json_len(&self) -> usize {
        Wire::json_len(self)
    }

    /// Encode into a UDP packet. `extra_len` models payload bytes that are
    /// not literally stored (e.g. compressed image data in a frame chunk).
    /// The wire size is header + [`Self::json_len`] + `extra_len`.
    pub fn into_packet(
        &self,
        src: (Ipv4Addr, u16),
        dst: (Ipv4Addr, u16),
        extra_len: u32,
        at: Instant,
    ) -> Packet {
        let body = codec::encode(self);
        let pad = self.json_len() - body.len();
        let mut pkt = Packet::udp_with_payload(src, dst, Bytes::from(body));
        pkt.app_len = extra_len + pad as u32;
        pkt.created = at;
        pkt
    }

    /// Decode from a packet payload.
    pub fn from_packet(pkt: &Packet) -> Option<AppMsg> {
        if pkt.protocol != proto::UDP {
            return None;
        }
        codec::decode(&pkt.payload)
    }
}

// Binary layout: tags number the variants in declaration order.
wire_enum!(AppMsg {
    0 FrameChunk { seq, chunk, total_chunks, meta if some },
    1 ChunkAck { seq, chunk },
    2 FrameResult { seq, matched, compute_s, match_s, candidates },
    3 RxReport { landmark, rx_power_dbm },
    4 MrsRequest { service, ue_addr, create },
    5 Heartbeat { service, server },
    6 MrsAck { service, ok, server },
});

/// The vision types are written field by field: scene id, width, height,
/// then the codec as a tag byte (`0` JPEG plus its quality, `1` PNG, `2`
/// raw gray).
impl Wire for FrameMeta {
    fn put(&self, out: &mut Vec<u8>) {
        self.spec.scene_id.put(out);
        self.spec.resolution.w.put(out);
        self.spec.resolution.h.put(out);
        match self.codec {
            Codec::Jpeg(q) => out.extend_from_slice(&[0, q]),
            Codec::Png => out.push(1),
            Codec::RawGray => out.push(2),
        }
        self.view_seed.put(out);
        self.captured_at_nanos.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        let scene_id = u64::get(r)?;
        let resolution = Resolution {
            w: u32::get(r)?,
            h: u32::get(r)?,
        };
        let codec = match r.u8()? {
            0 => Codec::Jpeg(r.u8()?),
            1 => Codec::Png,
            2 => Codec::RawGray,
            _ => return None,
        };
        Some(FrameMeta {
            spec: ImageSpec::new(scene_id, resolution),
            codec,
            view_seed: u64::get(r)?,
            captured_at_nanos: u64::get(r)?,
        })
    }
    fn json_len(&self) -> usize {
        let res = self.spec.resolution;
        let resolution = JsonObject::new().field("w", &res.w).field("h", &res.h);
        let spec = JsonObject::new()
            .field("scene_id", &self.spec.scene_id)
            .member("resolution", resolution.finish());
        let codec = match self.codec {
            Codec::Jpeg(q) => json_variant("Jpeg", q.json_len()),
            Codec::Png => "\"Png\"".len(),
            Codec::RawGray => "\"RawGray\"".len(),
        };
        JsonObject::new()
            .member("spec", spec.finish())
            .member("codec", codec)
            .field("view_seed", &self.view_seed)
            .field("captured_at_nanos", &self.captured_at_nanos)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, a)
    }

    #[test]
    fn roundtrip_all_variants() {
        let msgs = vec![
            AppMsg::FrameChunk {
                seq: 3,
                chunk: 0,
                total_chunks: 4,
                meta: Some(FrameMeta {
                    spec: ImageSpec::new(9, Resolution::E2E),
                    codec: Codec::Jpeg(90),
                    view_seed: 42,
                    captured_at_nanos: 1_000,
                }),
            },
            AppMsg::FrameChunk {
                seq: 3,
                chunk: 1,
                total_chunks: 4,
                meta: None,
            },
            AppMsg::ChunkAck { seq: 3, chunk: 1 },
            AppMsg::FrameResult {
                seq: 3,
                matched: Some("food#2".into()),
                compute_s: 0.05,
                match_s: 0.08,
                candidates: 20,
            },
            AppMsg::RxReport {
                landmark: "L4".into(),
                rx_power_dbm: -71.5,
            },
            AppMsg::MrsRequest {
                service: "acme".into(),
                ue_addr: ip(1),
                create: true,
            },
            AppMsg::Heartbeat {
                service: "acme".into(),
                server: ip(3),
            },
            AppMsg::MrsAck {
                service: "acme".into(),
                ok: true,
                server: Some(ip(2)),
            },
        ];
        for m in msgs {
            let pkt = m.into_packet((ip(1), APP_PORT), (ip(2), AR_PORT), 0, Instant::ZERO);
            assert_eq!(AppMsg::from_packet(&pkt), Some(m));
        }
    }

    #[test]
    fn extra_len_inflates_wire_size() {
        let m = AppMsg::FrameChunk {
            seq: 0,
            chunk: 0,
            total_chunks: 1,
            meta: Some(FrameMeta {
                spec: ImageSpec::new(1, Resolution::E2E),
                codec: Codec::Jpeg(90),
                view_seed: 0,
                captured_at_nanos: 0,
            }),
        };
        let small = m.into_packet((ip(1), 1), (ip(2), 2), 0, Instant::ZERO);
        let big = m.into_packet((ip(1), 1), (ip(2), 2), 1_300, Instant::ZERO);
        assert_eq!(big.wire_size(), small.wire_size() + 1_300);
    }
}
