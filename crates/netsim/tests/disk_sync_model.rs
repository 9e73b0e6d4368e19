//! Differential model test for [`VirtualDisk`]'s incremental sync.
//!
//! `VirtualDisk::sync` copies only the bytes past each file's dirty
//! watermark, and `crash` restores only those. The reference disk here
//! keeps the plain semantics instead: a sync copies every file's whole
//! current content into its durable image, and a crash copies the whole
//! durable image back (keeping the torn half of an unsynced tail). Random
//! sequences of writes with holes, appends, growing and shrinking
//! truncates, removes, re-creates, renames onto existing and fresh
//! targets, syncs, crashes and byte corruptions must leave both disks
//! observably identical after every step. A crash exposes the durable
//! images, so a watermark set too high shows up as a divergence there.

use gvfs_netsim::disk::{DiskConfig, VirtualDisk};
use proptest::prelude::*;
use std::collections::HashMap;

/// Paths under two prefixes, few enough that renames and re-creates
/// collide often.
const PATHS: [&str; 4] = ["d/a", "d/b", "d/c", "e"];

#[derive(Debug, Clone)]
enum Op {
    Write { path: usize, offset: u64, len: usize, byte: u8 },
    Append { path: usize, len: usize, byte: u8 },
    Truncate { path: usize, len: u64 },
    Remove { path: usize },
    Rename { from: usize, to: usize },
    Sync,
    Crash,
    Corrupt { path: usize, offset: u64, xor: u8 },
}

fn path() -> impl Strategy<Value = usize> {
    0usize..PATHS.len()
}

fn write() -> impl Strategy<Value = Op> {
    (path(), 0u64..48, 0usize..20, any::<u8>()).prop_map(|(path, offset, len, byte)| Op::Write {
        path,
        offset,
        len,
        byte,
    })
}

fn append() -> impl Strategy<Value = Op> {
    (path(), 0usize..20, any::<u8>()).prop_map(|(path, len, byte)| Op::Append { path, len, byte })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        write(),
        write(),
        append(),
        append(),
        (path(), 0u64..48).prop_map(|(path, len)| Op::Truncate { path, len }),
        path().prop_map(|path| Op::Remove { path }),
        (path(), path()).prop_map(|(from, to)| Op::Rename { from, to }),
        Just(Op::Sync),
        Just(Op::Sync),
        Just(Op::Crash),
        (path(), 0u64..48, 1u8..=255).prop_map(|(path, offset, xor)| Op::Corrupt {
            path,
            offset,
            xor
        }),
    ]
}

#[derive(Debug, Default, Clone)]
struct RefFile {
    data: Vec<u8>,
    durable: Vec<u8>,
    deleted: bool,
}

/// The reference disk: whole-content sync and crash, no dirty tracking.
#[derive(Debug, Default)]
struct RefDisk {
    files: HashMap<String, RefFile>,
}

impl RefDisk {
    fn live(&mut self, path: &str) -> &mut RefFile {
        let f = self.files.entry(path.to_owned()).or_default();
        if f.deleted {
            f.deleted = false;
            f.data.clear();
        }
        f
    }

    fn write(&mut self, path: &str, offset: u64, bytes: &[u8]) {
        let f = self.live(path);
        let off = usize::try_from(offset).expect("small offset");
        let end = off + bytes.len();
        if f.data.len() < end {
            f.data.resize(end, 0);
        }
        f.data[off..end].copy_from_slice(bytes);
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> u64 {
        let f = self.live(path);
        let off = f.data.len() as u64;
        f.data.extend_from_slice(bytes);
        off
    }

    fn truncate(&mut self, path: &str, len: u64) {
        self.live(path).data.truncate(usize::try_from(len).expect("small length"));
    }

    fn remove(&mut self, path: &str) {
        if let Some(f) = self.files.get_mut(path) {
            if f.durable.is_empty() {
                self.files.remove(path);
            } else {
                f.deleted = true;
                f.data.clear();
            }
        }
    }

    fn rename(&mut self, old: &str, new: &str) {
        if let Some(mut f) = self.files.remove(old) {
            if let Some(prev) = self.files.get(new) {
                if !prev.durable.is_empty() && f.durable.is_empty() {
                    f.durable = prev.durable.clone();
                }
            }
            self.files.insert(new.to_owned(), f);
        }
    }

    fn sync(&mut self) {
        self.files.retain(|_, f| !f.deleted);
        for f in self.files.values_mut() {
            f.durable = f.data.clone();
        }
    }

    fn crash(&mut self) {
        self.files.retain(|_, f| {
            if f.deleted {
                f.deleted = false;
                f.data = f.durable.clone();
            } else if f.data.len() > f.durable.len() {
                let torn = (f.data.len() - f.durable.len()) / 2;
                f.data.truncate(f.durable.len() + torn);
                f.data[..f.durable.len()].copy_from_slice(&f.durable);
            } else {
                f.data = f.durable.clone();
            }
            !f.data.is_empty() || !f.durable.is_empty()
        });
    }

    fn corrupt_byte(&mut self, path: &str, offset: u64, xor: u8) -> bool {
        let Some(f) = self.files.get_mut(path).filter(|f| !f.deleted) else { return false };
        let off = usize::try_from(offset).expect("small offset");
        if off >= f.data.len() {
            return false;
        }
        f.data[off] ^= xor;
        if off < f.durable.len() {
            f.durable[off] ^= xor;
        }
        true
    }

    fn read(&self, path: &str) -> Option<Vec<u8>> {
        self.files.get(path).filter(|f| !f.deleted).map(|f| f.data.clone())
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let mut v: Vec<String> = self
            .files
            .iter()
            .filter(|(p, f)| p.starts_with(prefix) && !f.deleted)
            .map(|(p, _)| p.clone())
            .collect();
        v.sort_unstable();
        v
    }
}

/// Applies `op` to both disks, failing on any differing return value.
fn apply(disk: &VirtualDisk, model: &mut RefDisk, op: &Op) -> Result<(), TestCaseError> {
    match *op {
        Op::Write { path, offset, len, byte } => {
            let bytes = vec![byte; len];
            disk.write(PATHS[path], offset, &bytes);
            model.write(PATHS[path], offset, &bytes);
        }
        Op::Append { path, len, byte } => {
            let bytes = vec![byte; len];
            prop_assert_eq!(disk.append(PATHS[path], &bytes), model.append(PATHS[path], &bytes));
        }
        Op::Truncate { path, len } => {
            disk.truncate(PATHS[path], len);
            model.truncate(PATHS[path], len);
        }
        Op::Remove { path } => {
            disk.remove(PATHS[path]);
            model.remove(PATHS[path]);
        }
        Op::Rename { from, to } => {
            disk.rename(PATHS[from], PATHS[to]);
            model.rename(PATHS[from], PATHS[to]);
        }
        Op::Sync => {
            disk.sync();
            model.sync();
        }
        Op::Crash => {
            disk.crash();
            model.crash();
        }
        Op::Corrupt { path, offset, xor } => {
            prop_assert_eq!(
                disk.corrupt_byte(PATHS[path], offset, xor),
                model.corrupt_byte(PATHS[path], offset, xor)
            );
        }
    }
    Ok(())
}

/// Every observable of the two disks agrees.
fn agree(disk: &VirtualDisk, model: &RefDisk, step: usize) -> Result<(), TestCaseError> {
    for p in PATHS {
        let want = model.read(p);
        prop_assert_eq!(
            disk.read(p, 0, usize::MAX),
            want.clone(),
            "read {} after step {}",
            p,
            step
        );
        prop_assert_eq!(disk.len(p), want.as_ref().map(|d| d.len() as u64), "len {}", p);
        prop_assert_eq!(disk.exists(p), want.is_some(), "exists {}", p);
    }
    for prefix in ["", "d/"] {
        prop_assert_eq!(
            disk.list(prefix),
            model.list(prefix),
            "list {:?} after step {}",
            prefix,
            step
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn incremental_sync_matches_whole_content_sync(
        ops in proptest::collection::vec(op(), 1..80),
    ) {
        let disk = VirtualDisk::new(DiskConfig::instant());
        let mut model = RefDisk::default();
        for (step, op) in ops.iter().enumerate() {
            apply(&disk, &mut model, op)?;
            agree(&disk, &model, step)?;
        }
        // The durable images must agree too, whatever the last step was.
        disk.crash();
        model.crash();
        agree(&disk, &model, ops.len())?;
    }
}

/// The cases the watermark rules single out, each followed by a crash
/// that exposes the durable image.
#[test]
fn watermark_corner_cases_survive_crash() {
    let d = VirtualDisk::new(DiskConfig::instant());
    // A write past the end zero-fills the hole from the old end.
    d.write("f", 0, b"ab");
    d.sync();
    d.write("f", 6, b"z");
    d.sync();
    d.crash();
    assert_eq!(d.read("f", 0, 16).unwrap(), b"ab\0\0\0\0z");
    // A shrinking truncate is durable after a sync; a growing one is a no-op.
    d.truncate("f", 1);
    d.truncate("f", 9);
    d.sync();
    d.crash();
    assert_eq!(d.read("f", 0, 16).unwrap(), b"a");
    // A torn tail left by a crash is promoted by the next sync.
    d.append("f", b"bcdefg");
    d.crash();
    assert_eq!(d.read("f", 0, 16).unwrap(), b"abcd");
    d.sync();
    d.crash();
    assert_eq!(d.read("f", 0, 16).unwrap(), b"abcd");
    // A rename that inherits the target's durable copy rewrites it whole.
    d.write("g", 0, b"old-target");
    d.sync();
    d.write("h", 0, b"new");
    d.rename("h", "g");
    d.sync();
    d.crash();
    assert_eq!(d.read("g", 0, 16).unwrap(), b"new");
    // Re-creating a removed path rewrites it from offset 0.
    d.remove("g");
    d.write("g", 1, b"x");
    d.sync();
    d.crash();
    assert_eq!(d.read("g", 0, 16).unwrap(), b"\0x");
}
