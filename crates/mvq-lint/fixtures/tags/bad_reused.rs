//! Violating: `Kind::C` was retired at 2, yet the newly appended
//! `Kind::D` takes 2 and `Kind::E` takes `Kind::A`'s 0 — both pinned,
//! both aliasing blobs an older build wrote.

/// Container format version.
pub const FORMAT_VERSION: u16 = 1;

/// Blob kinds; `C` is gone and its tag is reserved.
pub enum Kind {
    /// First kind.
    A,
    /// Second kind.
    B,
    /// Appended on the retired `C`'s value.
    D,
    /// Appended on `A`'s value.
    E,
}

/// Encodes a kind.
pub fn tag(k: Kind) -> u8 {
    match k {
        Kind::A => 0,
        Kind::B => 1,
        Kind::D => 2,
        Kind::E => 0,
    }
}
