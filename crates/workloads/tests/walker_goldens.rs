//! Walker-stream goldens: for every built-in profile, an FNV-1a digest of
//! the first 200k dynamic blocks (and their instructions) that
//! `Walker::emit_block` produces under the simulator's seeding
//! (`Walker::new(&program, profile.seed)`).
//!
//! The simulator's golden reports catch any change to simulated output,
//! but only after a full cycle-level run, and they cannot say which layer
//! moved. A change to the program layout or the walker that perturbs the
//! committed-path input stream fails here first, naming the profile.

use emissary_workloads::{DynBlock, DynInstr, DynOp, Profile, Walker};

/// Dynamic blocks digested per profile.
const BLOCKS: usize = 200_000;

/// Digests recorded before the program arena replaced per-block vectors.
const GOLDEN: [(&str, u64); 13] = [
    ("specjbb", 0xb0f8_e854_8c2d_146b),
    ("xapian", 0xd868_2ed3_bcd0_09d4),
    ("finagle-http", 0x909d_a140_bb06_d305),
    ("finagle-chirper", 0xaa30_6da2_01ef_c956),
    ("tomcat", 0x3ff4_2024_fe36_f3f2),
    ("kafka", 0x89b0_31a1_e438_8dfe),
    ("tpcc", 0x0a7b_d2f3_6bdb_40c3),
    ("wikipedia", 0x6848_2038_adca_34fb),
    ("media-stream", 0xc4c2_8ea6_0964_4ef2),
    ("web-search", 0x4628_f5b3_a133_b2f1),
    ("data-serving", 0x89d8_9cf6_d1e8_c0c8),
    ("verilator", 0x6287_b163_e213_a2f0),
    ("speedometer2.0", 0x55ad_066e_4852_e1d2),
];

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest_block(h: &mut Fnv, b: &DynBlock, instrs: &[DynInstr]) {
    h.u64(u64::from(b.id));
    h.u64(b.start);
    h.u64(u64::from(b.num_instrs));
    h.bytes(&[b.class as u8, u8::from(b.taken)]);
    h.u64(b.taken_target);
    h.u64(b.next_start);
    for i in instrs {
        h.u64(i.pc);
        match i.op {
            DynOp::Alu => h.bytes(&[0]),
            DynOp::Load(a) => {
                h.bytes(&[1]);
                h.u64(a);
            }
            DynOp::Store(a) => {
                h.bytes(&[2]);
                h.u64(a);
            }
        }
        h.bytes(&[i.dep1, i.dep2, u8::from(i.is_terminator)]);
    }
}

fn stream_digest(profile: &Profile) -> u64 {
    let program = profile.build();
    let mut walker = Walker::new(&program, profile.seed);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut buf = Vec::new();
    for _ in 0..BLOCKS {
        buf.clear();
        let block = walker.emit_block(&mut buf);
        digest_block(&mut h, &block, &buf);
    }
    h.0
}

#[test]
fn every_profile_walks_its_golden_stream() {
    let profiles = Profile::all();
    assert_eq!(
        profiles.len(),
        GOLDEN.len(),
        "record goldens for new profiles"
    );
    let drifted: Vec<String> = profiles
        .iter()
        .filter_map(|profile| {
            let name = profile.name;
            let got = stream_digest(profile);
            match GOLDEN.iter().find(|(n, _)| *n == name) {
                Some(&(_, golden)) if golden == got => None,
                Some(&(_, golden)) => {
                    Some(format!("{name}: got {got:#018x}, golden {golden:#018x}"))
                }
                None => Some(format!("{name}: no golden (got {got:#018x})")),
            }
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "walker stream drifted:\n{}",
        drifted.join("\n")
    );
}
