//! A minimal ELF64 container for emitted modules.
//!
//! The object is a little-endian `ET_REL` for `EM_X86_64` with the
//! metadata the paper's runtime keeps beside the code as first-class
//! binary sections:
//!
//! | section         | contents                                          |
//! |-----------------|---------------------------------------------------|
//! | `.text`         | all function code, 16-aligned, `int3` padded      |
//! | `.njc.funcs`    | per-function layout (name, offset, length, frame) |
//! | `.njc.exctab`   | the exception-site table: byte offsets + provenance |
//! | `.njc.handlers` | handler byte ranges with catch filters            |
//! | `.njc.classes`  | allocation sizes and method-id dispatch tables    |
//!
//! [`parse_elf`] reads the sections back into an [`EmittedModule`], so the
//! binary verifier can run against the *artifact* rather than in-memory
//! state — closing the IR → bytes provenance chain. Writing is fully
//! deterministic: same module, same bytes.

use njc_ir::{AccessKind, CatchKind, CheckId};

use crate::abi;
use crate::encode::{BinHandler, BinSite, EmittedClass, EmittedFunction, EmittedModule};

const SECTION_NAMES: [&str; 7] = [
    "",
    ".text",
    ".njc.funcs",
    ".njc.exctab",
    ".njc.handlers",
    ".njc.classes",
    ".shstrtab",
];

struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes.extend_from_slice(s.as_bytes());
    }
}

fn funcs_section(em: &EmittedModule) -> Vec<u8> {
    let mut w = Writer { bytes: Vec::new() };
    w.u32(em.functions.len() as u32);
    for f in &em.functions {
        w.str(&f.name);
        w.u32(f.text_off);
        w.u32(f.text_len);
        w.u32(f.num_regs);
        w.u32(f.num_params);
        w.u8(f.ret.map_or(0, abi::type_tag) as u8);
    }
    w.bytes
}

fn exctab_section(em: &EmittedModule) -> Vec<u8> {
    let mut w = Writer { bytes: Vec::new() };
    let total: u32 = em.functions.iter().map(|f| f.sites.len() as u32).sum();
    w.u32(total);
    for (fi, f) in em.functions.iter().enumerate() {
        for s in &f.sites {
            w.u32(fi as u32);
            w.u32(s.byte_off);
            w.u32(s.check.0);
            w.u8(match s.kind {
                AccessKind::Read => 0,
                AccessKind::Write => 1,
            });
            w.u8(u8::from(s.offset.is_some()));
            w.u64(s.offset.unwrap_or(0));
        }
    }
    w.bytes
}

fn handlers_section(em: &EmittedModule) -> Vec<u8> {
    let mut w = Writer { bytes: Vec::new() };
    let total: u32 = em.functions.iter().map(|f| f.handlers.len() as u32).sum();
    w.u32(total);
    for (fi, f) in em.functions.iter().enumerate() {
        for h in &f.handlers {
            w.u32(fi as u32);
            w.u32(h.start);
            w.u32(h.end);
            w.u32(h.handler);
            match h.catch {
                CatchKind::Any => {
                    w.u8(0);
                    w.u8(0);
                    w.u64(0);
                }
                CatchKind::Only(kind) => {
                    w.u8(1);
                    w.u8(abi::exception_tag(kind) as u8);
                    w.u64(kind.code() as u64);
                }
            }
            w.u32(h.code_slot.map_or(u32::MAX, |s| s));
        }
    }
    w.bytes
}

fn classes_section(em: &EmittedModule) -> Vec<u8> {
    let mut w = Writer { bytes: Vec::new() };
    w.u32(em.method_names.len() as u32);
    for name in &em.method_names {
        w.str(name);
    }
    w.u32(em.classes.len() as u32);
    for c in &em.classes {
        w.u64(c.size);
        w.u32(c.methods.len() as u32);
        for (mid, fidx) in &c.methods {
            w.u32(*mid);
            w.u32(*fidx);
        }
    }
    w.bytes
}

/// Serialises an emitted module as a deterministic ELF64 relocatable.
pub fn write_elf(em: &EmittedModule) -> Vec<u8> {
    let mut shstrtab = Vec::new();
    let mut name_offs = Vec::new();
    for name in SECTION_NAMES {
        name_offs.push(shstrtab.len() as u32);
        shstrtab.extend_from_slice(name.as_bytes());
        shstrtab.push(0);
    }
    let payloads: [Vec<u8>; 6] = [
        em.text.clone(),
        funcs_section(em),
        exctab_section(em),
        handlers_section(em),
        classes_section(em),
        shstrtab,
    ];

    let ehsize = 64u64;
    let shentsize = 64u64;
    let shnum = 7u64;
    let mut data_off = ehsize + shentsize * shnum;
    data_off = data_off.div_ceil(16) * 16;

    let mut w = Writer {
        bytes: Vec::with_capacity(data_off as usize),
    };
    // ELF header.
    w.bytes
        .extend_from_slice(&[0x7F, b'E', b'L', b'F', 2, 1, 1, 0]);
    w.bytes.extend_from_slice(&[0; 8]); // padding
    w.bytes.extend_from_slice(&1u16.to_le_bytes()); // e_type = ET_REL
    w.bytes.extend_from_slice(&0x3Eu16.to_le_bytes()); // e_machine = EM_X86_64
    w.u32(1); // e_version
    w.u64(0); // e_entry
    w.u64(0); // e_phoff
    w.u64(ehsize); // e_shoff
    w.u32(0); // e_flags
    w.bytes.extend_from_slice(&(ehsize as u16).to_le_bytes());
    w.bytes.extend_from_slice(&0u16.to_le_bytes()); // e_phentsize
    w.bytes.extend_from_slice(&0u16.to_le_bytes()); // e_phnum
    w.bytes.extend_from_slice(&(shentsize as u16).to_le_bytes());
    w.bytes.extend_from_slice(&(shnum as u16).to_le_bytes());
    w.bytes.extend_from_slice(&6u16.to_le_bytes()); // e_shstrndx

    // Section headers: the null section, then the six real ones laid out
    // back to back from `data_off`.
    let mut offsets = Vec::new();
    let mut cur = data_off;
    for p in &payloads {
        offsets.push(cur);
        cur += p.len() as u64;
    }
    // Null header.
    w.bytes.extend_from_slice(&[0u8; 64]);
    for (i, p) in payloads.iter().enumerate() {
        w.u32(name_offs[i + 1]); // sh_name
        w.u32(if i + 1 == 6 { 3 } else { 1 }); // SHT_STRTAB / SHT_PROGBITS
        w.u64(if i == 0 { 6 } else { 0 }); // .text: ALLOC|EXECINSTR
        w.u64(0); // sh_addr
        w.u64(offsets[i]); // sh_offset
        w.u64(p.len() as u64); // sh_size
        w.u32(0); // sh_link
        w.u32(0); // sh_info
        w.u64(if i == 0 { 16 } else { 1 }); // sh_addralign
        w.u64(0); // sh_entsize
    }
    while (w.bytes.len() as u64) < data_off {
        w.u8(0);
    }
    for p in &payloads {
        w.bytes.extend_from_slice(p);
    }
    w.bytes
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, String> {
        let v = *self.bytes.get(self.at).ok_or("truncated section")?;
        self.at += 1;
        Ok(v)
    }
    fn u32(&mut self) -> Result<u32, String> {
        let s = self
            .bytes
            .get(self.at..self.at + 4)
            .ok_or("truncated section")?;
        self.at += 4;
        Ok(u32::from_le_bytes(s.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, String> {
        let s = self
            .bytes
            .get(self.at..self.at + 8)
            .ok_or("truncated section")?;
        self.at += 8;
        Ok(u64::from_le_bytes(s.try_into().unwrap()))
    }
    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let end = self.at.checked_add(len).ok_or("truncated string")?;
        let s = self.bytes.get(self.at..end).ok_or("truncated string")?;
        self.at = end;
        String::from_utf8(s.to_vec()).map_err(|_| "non-utf8 name".to_string())
    }
    /// A capacity for `count` records read from the file: no more than
    /// the bytes left can hold at `min_len` bytes each, so a hostile count
    /// fails as a truncated section instead of as one huge allocation.
    fn capacity(&self, count: usize, min_len: usize) -> usize {
        count.min((self.bytes.len() - self.at) / min_len)
    }
}

/// The little-endian `u64` at `at`, as a `usize`.
fn word(elf: &[u8], at: usize) -> Option<usize> {
    let bytes = elf.get(at..at.checked_add(8)?)?;
    usize::try_from(u64::from_le_bytes(bytes.try_into().unwrap())).ok()
}

fn section(elf: &[u8], index: usize) -> Result<&[u8], String> {
    let shoff = word(elf, 0x28).ok_or("truncated header")?;
    let hdr = index
        .checked_mul(64)
        .and_then(|rel| shoff.checked_add(rel))
        .ok_or("section header out of bounds")?;
    let field = |at: usize| {
        hdr.checked_add(at)
            .and_then(|at| word(elf, at))
            .ok_or("truncated section header")
    };
    let (off, size) = (field(24)?, field(32)?);
    off.checked_add(size)
        .and_then(|end| elf.get(off..end))
        .ok_or_else(|| "section out of bounds".to_string())
}

/// Parses an ELF produced by [`write_elf`] back into an
/// [`EmittedModule`].
///
/// # Errors
/// A description of the first malformation found.
pub fn parse_elf(elf: &[u8]) -> Result<EmittedModule, String> {
    if elf.get(..4) != Some(&[0x7F, b'E', b'L', b'F']) {
        return Err("not an ELF object".to_string());
    }
    if elf.get(4).copied() != Some(2) || elf.get(5).copied() != Some(1) {
        return Err("not a little-endian ELF64".to_string());
    }
    let text = section(elf, 1)?.to_vec();

    let mut r = Reader {
        bytes: section(elf, 2)?,
        at: 0,
    };
    let nfuncs = r.u32()? as usize;
    // A function record is at least a length-prefixed name, four `u32`s
    // and the return tag.
    let mut functions = Vec::with_capacity(r.capacity(nfuncs, 21));
    for _ in 0..nfuncs {
        let name = r.str()?;
        let text_off = r.u32()?;
        let text_len = r.u32()?;
        let num_regs = r.u32()?;
        let num_params = r.u32()?;
        let ret = match r.u8()? {
            0 => None,
            t => Some(abi::type_from_tag(u32::from(t)).ok_or("bad return type tag")?),
        };
        if (text_off as usize) + (text_len as usize) > text.len() {
            return Err(format!("function `{name}` extends past .text"));
        }
        functions.push(EmittedFunction {
            name,
            text_off,
            text_len,
            num_regs,
            num_params,
            ret,
            sites: Vec::new(),
            handlers: Vec::new(),
        });
    }

    let mut r = Reader {
        bytes: section(elf, 3)?,
        at: 0,
    };
    let nsites = r.u32()?;
    for _ in 0..nsites {
        let fi = r.u32()? as usize;
        let byte_off = r.u32()?;
        let check = CheckId(r.u32()?);
        let kind = match r.u8()? {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            _ => return Err("bad access kind tag".to_string()),
        };
        let has_off = r.u8()? != 0;
        let off = r.u64()?;
        functions
            .get_mut(fi)
            .ok_or("site references unknown function")?
            .sites
            .push(BinSite {
                byte_off,
                check,
                kind,
                offset: has_off.then_some(off),
            });
    }

    let mut r = Reader {
        bytes: section(elf, 4)?,
        at: 0,
    };
    let nhandlers = r.u32()?;
    for _ in 0..nhandlers {
        let fi = r.u32()? as usize;
        let start = r.u32()?;
        let end = r.u32()?;
        let handler = r.u32()?;
        let catch = match r.u8()? {
            0 => {
                r.u8()?;
                r.u64()?;
                CatchKind::Any
            }
            1 => {
                let tag = u32::from(r.u8()?);
                let code = r.u64()? as i64;
                CatchKind::Only(abi::exception_from_tag(tag, code).ok_or("bad exception tag")?)
            }
            _ => return Err("bad catch tag".to_string()),
        };
        let code_slot = match r.u32()? {
            u32::MAX => None,
            s => Some(s),
        };
        functions
            .get_mut(fi)
            .ok_or("handler references unknown function")?
            .handlers
            .push(BinHandler {
                start,
                end,
                catch,
                handler,
                code_slot,
            });
    }

    let mut r = Reader {
        bytes: section(elf, 5)?,
        at: 0,
    };
    let nnames = r.u32()? as usize;
    let mut method_names = Vec::with_capacity(r.capacity(nnames, 4));
    for _ in 0..nnames {
        method_names.push(r.str()?);
    }
    let nclasses = r.u32()? as usize;
    let mut classes = Vec::with_capacity(r.capacity(nclasses, 12));
    for _ in 0..nclasses {
        let size = r.u64()?;
        let nmethods = r.u32()? as usize;
        let mut methods = Vec::with_capacity(r.capacity(nmethods, 8));
        for _ in 0..nmethods {
            let mid = r.u32()?;
            let fidx = r.u32()?;
            if mid as usize >= method_names.len() || fidx as usize >= functions.len() {
                return Err("method table references unknown id".to_string());
            }
            methods.push((mid, fidx));
        }
        classes.push(EmittedClass { size, methods });
    }

    Ok(EmittedModule {
        text,
        functions,
        classes,
        method_names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::emit_module;
    use njc_codegen::lower_module;
    use njc_ir::{parse_function, Module, Type};

    fn demo() -> EmittedModule {
        let mut m = Module::new("demo");
        m.add_class("C", &[("x", Type::Int)]);
        m.add_function(
            parse_function(
                "func main() -> int {\n  locals v0: ref v1: int\nbb0:\n  v0 = new class0\n  v1 = const 5\n  putfield v0, field0, v1 [site]\n  v1 = getfield v0, field0 [site]\n  return v1\n}",
            )
            .unwrap(),
        );
        emit_module(&lower_module(&m), 1)
    }

    #[test]
    fn elf_round_trips() {
        let em = demo();
        let elf = write_elf(&em);
        let back = parse_elf(&elf).unwrap();
        assert_eq!(em, back);
    }

    #[test]
    fn elf_is_deterministic() {
        let em = demo();
        assert_eq!(write_elf(&em), write_elf(&em));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_elf(b"not an elf").is_err());
        let mut elf = write_elf(&demo());
        elf[4] = 1; // claim ELF32
        assert!(parse_elf(&elf).is_err());
    }

    /// The file offset of section `index`'s payload.
    fn payload(elf: &[u8], index: usize) -> usize {
        word(elf, word(elf, 0x28).unwrap() + index * 64 + 24).unwrap()
    }

    #[test]
    fn hostile_counts_and_offsets_are_errors_not_aborts() {
        let em = demo();
        // `.njc.classes` is the method-name count, then the class count,
        // then per class its size and method count.
        assert!(em.method_names.is_empty() && em.classes.len() == 1);
        let elf = write_elf(&em);
        let patches = [
            ("function count", payload(&elf, 2), 4),
            ("method-name count", payload(&elf, 5), 4),
            ("class count", payload(&elf, 5) + 4, 4),
            ("method count", payload(&elf, 5) + 16, 4),
            ("section header offset", 0x28, 8),
        ];
        for (what, at, width) in patches {
            let mut bad = elf.clone();
            bad[at..at + width].fill(0xFF);
            if width == 8 {
                bad[at] = 0xF0; // u64::MAX - 15: `shoff + index * 64` overflows
            }
            assert!(parse_elf(&bad).is_err(), "{what}");
        }
    }
}
