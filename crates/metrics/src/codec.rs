//! Symmetric state codec for mid-run snapshots.
//!
//! A snapshotted type implements [`State`] once: its `state` method names
//! each field once, in emission order, through [`StateCodec::field`], and
//! serves both directions. Saving writes each field into a JSON object;
//! loading reads it, range-checks it and assigns it. The primitive
//! encodings live here and only here:
//!
//! * `u8`/`u32`/`u64`/`usize` as [`Json::UInt`], range-checked on load;
//! * `i64` as [`Json::UInt`] when non-negative and [`Json::Int`] when
//!   negative — what the parser reads back, so emit → parse → emit is
//!   byte-stable;
//! * `f64` as 16 hex digits of its bits, so restore is bit-exact;
//! * `bool` as itself, `Option` as `null` or the value;
//! * slices and arrays in place: the loaded length must equal the
//!   receiver's (geometry-sized state);
//! * `Vec`/`VecDeque` as arrays of any length, loaded into fresh elements;
//! * tuples as positional arrays of fixed arity.
//!
//! Load errors name the path to the bad value (`banks_m1: [3]: cas_ready:
//! expected an unsigned integer`). Loading never panics on hostile input;
//! a failed load may leave the receiver partly assigned, so callers
//! discard it.

use std::collections::VecDeque;

use profess_types::ids::{GroupId, ProgramId, SlotIdx};
use profess_types::Cycle;

use crate::Json;

/// A type whose mutable state travels through a [`StateCodec`].
pub trait State {
    /// Saves `self` into `c` or loads it from `c`, field by field. A load
    /// fails on the first missing, mistyped or out-of-range value; a save
    /// fails only for state that cannot be captured as configured.
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String>;
}

/// One direction of a [`State`] pass: saving into a JSON value, or
/// loading from one.
#[derive(Debug)]
pub struct StateCodec<'a> {
    /// The value being read; `None` while saving.
    input: Option<&'a Json>,
    /// The value being written while saving: an object, until a
    /// primitive replaces it.
    out: Json,
}

impl<'a> StateCodec<'a> {
    fn new(input: Option<&'a Json>) -> Self {
        StateCodec {
            input,
            out: Json::Obj(Vec::new()),
        }
    }

    /// Saves `v` into a fresh JSON value.
    pub fn save<T: State + ?Sized>(v: &mut T) -> Result<Json, String> {
        let mut c = StateCodec::new(None);
        v.state(&mut c)?;
        Ok(c.out)
    }

    /// Loads `v` from `j`.
    pub fn load<T: State + ?Sized>(v: &mut T, j: &Json) -> Result<(), String> {
        v.state(&mut StateCodec::new(Some(j)))
    }

    /// `true` while loading. Only encodings that are not a plain field
    /// (sparse lists, derived caches) branch on it.
    pub fn is_load(&self) -> bool {
        self.input.is_some()
    }

    /// Saves or loads the object field `key`; errors are prefixed with it.
    pub fn field<T: State + ?Sized>(&mut self, key: &str, v: &mut T) -> Result<(), String> {
        self.object(key, |c| v.state(c))
    }

    /// Saves or loads the object field `key` through `f`, for state
    /// reached through a trait object; errors are prefixed with `key`.
    pub fn object(
        &mut self,
        key: &str,
        f: impl FnOnce(&mut StateCodec<'_>) -> Result<(), String>,
    ) -> Result<(), String> {
        let result = match self.input {
            None => {
                let mut child = StateCodec::new(None);
                f(&mut child).map(|()| {
                    if let Json::Obj(pairs) = &mut self.out {
                        pairs.push((key.to_string(), child.out));
                    }
                })
            }
            Some(j) => match j.get(key) {
                Some(v) => f(&mut StateCodec::new(Some(v))),
                None => return Err(format!("missing field \"{key}\"")),
            },
        };
        result.map_err(|e| format!("{key}: {e}"))
    }

    /// A two-valued field encoded as a boolean: `true` for `on`.
    pub fn flag<T: Copy + PartialEq>(
        &mut self,
        key: &str,
        v: &mut T,
        [off, on]: [T; 2],
    ) -> Result<(), String> {
        let mut b = *v == on;
        self.field(key, &mut b)?;
        *v = if b { on } else { off };
        Ok(())
    }

    /// Writes `enc(v)` while saving, or assigns `dec(input)` while
    /// loading.
    fn value<T>(
        &mut self,
        v: &mut T,
        enc: impl FnOnce(&T) -> Json,
        dec: impl FnOnce(&Json) -> Result<T, String>,
    ) -> Result<(), String> {
        match self.input {
            None => self.out = enc(v),
            Some(j) => *v = dec(j)?,
        }
        Ok(())
    }

    /// The array being loaded; `None` while saving.
    fn array(&self) -> Result<Option<&'a [Json]>, String> {
        self.input
            .map(|j| j.as_arr().ok_or_else(|| "expected an array".to_string()))
            .transpose()
    }
}

impl State for bool {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.value(
            self,
            |&b| Json::Bool(b),
            |j| j.as_bool().ok_or_else(|| "expected a boolean".to_string()),
        )
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl State for $t {
            fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
                c.value(self, |&x| Json::UInt(x as u64), |j| {
                    let x = j
                        .as_u64()
                        .ok_or_else(|| "expected an unsigned integer".to_string())?;
                    <$t>::try_from(x)
                        .map_err(|_| format!("{x} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

unsigned!(u8, u32, u64, usize);

impl State for i64 {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.value(
            self,
            |&x| u64::try_from(x).map_or(Json::Int(x), Json::UInt),
            |j| match *j {
                Json::UInt(x) => i64::try_from(x).map_err(|_| format!("{x} out of range for i64")),
                Json::Int(x) => Ok(x),
                _ => Err("expected an integer".to_string()),
            },
        )
    }
}

impl State for f64 {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.value(
            self,
            |x| Json::Str(format!("{:016x}", x.to_bits())),
            |j| {
                let s = j
                    .as_str()
                    .filter(|s| s.len() == 16)
                    .ok_or_else(|| "expected 16 hex digits of f64 bits".to_string())?;
                u64::from_str_radix(s, 16)
                    .map(f64::from_bits)
                    .map_err(|e| format!("{s:?}: {e}"))
            },
        )
    }
}

macro_rules! newtype {
    ($($t:ty),*) => {$(
        impl State for $t {
            fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
                self.0.state(c)
            }
        }
    )*};
}

newtype!(Cycle, GroupId, ProgramId);

impl State for SlotIdx {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        self.0.state(c)?;
        if self.index() >= SlotIdx::MAX {
            return Err(format!("slot {} out of range", self.0));
        }
        Ok(())
    }
}

impl<T: State + ?Sized> State for &mut T {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        (**self).state(c)
    }
}

impl<T: State + Default> State for Option<T> {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        match (c.input, self) {
            (Some(Json::Null), v) => *v = None,
            (Some(_), v) => return v.get_or_insert_with(T::default).state(c),
            (None, Some(v)) => return v.state(c),
            (None, None) => c.out = Json::Null,
        }
        Ok(())
    }
}

/// In place: the loaded array must have exactly `self.len()` elements.
impl<T: State> State for [T] {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        let Some(xs) = c.array()? else {
            c.out = save_all(self.iter_mut())?;
            return Ok(());
        };
        if xs.len() != self.len() {
            return Err(format!(
                "expected {} elements, got {}",
                self.len(),
                xs.len()
            ));
        }
        for (i, (v, x)) in self.iter_mut().zip(xs).enumerate() {
            StateCodec::load(v, x).map_err(|e| format!("[{i}]: {e}"))?;
        }
        Ok(())
    }
}

impl<T: State, const N: usize> State for [T; N] {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        self.as_mut_slice().state(c)
    }
}

fn save_all<'v, T: State + 'v>(items: impl Iterator<Item = &'v mut T>) -> Result<Json, String> {
    items
        .map(|v| StateCodec::save(v))
        .collect::<Result<_, _>>()
        .map(Json::Arr)
}

macro_rules! growable {
    ($($seq:ident),*) => {$(
        /// Any length: loading replaces the elements with fresh ones.
        impl<T: State + Default> State for $seq<T> {
            fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
                let Some(xs) = c.array()? else {
                    c.out = save_all(self.iter_mut())?;
                    return Ok(());
                };
                *self = xs
                    .iter()
                    .enumerate()
                    .map(|(i, x)| {
                        let mut v = T::default();
                        StateCodec::load(&mut v, x).map_err(|e| format!("[{i}]: {e}"))?;
                        Ok(v)
                    })
                    .collect::<Result<_, String>>()?;
                Ok(())
            }
        }
    )*};
}

growable!(Vec, VecDeque);

macro_rules! tuple {
    ($($n:tt $t:ident),+) => {
        /// A positional array of fixed arity.
        impl<$($t: State),+> State for ($($t,)+) {
            fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
                [$(&mut self.$n as &mut dyn State),+].state(c)
            }
        }
    };
}

tuple!(0 A, 1 B);
tuple!(0 A, 1 B, 2 C);
tuple!(0 A, 1 B, 2 C, 3 D);

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct Sample {
        small: u8,
        wide: u32,
        count: u64,
        index: usize,
        delta: i64,
        ratio: f64,
        on: bool,
        maybe: Option<u64>,
        fixed: [u64; 2],
        grow: Vec<u32>,
        queue: VecDeque<u64>,
        pair: (u64, bool),
        slot: SlotIdx,
    }

    impl State for Sample {
        fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
            c.field("small", &mut self.small)?;
            c.field("wide", &mut self.wide)?;
            c.field("count", &mut self.count)?;
            c.field("index", &mut self.index)?;
            c.field("delta", &mut self.delta)?;
            c.field("ratio", &mut self.ratio)?;
            c.field("on", &mut self.on)?;
            c.field("maybe", &mut self.maybe)?;
            c.field("fixed", &mut self.fixed)?;
            c.field("grow", &mut self.grow)?;
            c.field("queue", &mut self.queue)?;
            c.field("pair", &mut self.pair)?;
            c.field("slot", &mut self.slot)
        }
    }

    fn sample() -> Sample {
        Sample {
            small: 255,
            wide: u32::MAX,
            count: u64::MAX,
            index: 7,
            delta: -3,
            ratio: 1.0 / 3.0,
            on: true,
            maybe: Some(4),
            fixed: [1, 2],
            grow: vec![5, 6, 7],
            queue: VecDeque::from([8, 9]),
            pair: (10, false),
            slot: SlotIdx(16),
        }
    }

    #[test]
    fn save_load_round_trips_through_text() {
        let mut s = sample();
        let text = StateCodec::save(&mut s).expect("saves").to_string();
        assert_eq!(
            text,
            "{\"small\":255,\"wide\":4294967295,\"count\":18446744073709551615,\
             \"index\":7,\"delta\":-3,\"ratio\":\"3fd5555555555555\",\"on\":true,\
             \"maybe\":4,\"fixed\":[1,2],\"grow\":[5,6,7],\"queue\":[8,9],\
             \"pair\":[10,false],\"slot\":16}"
        );
        let mut back = Sample::default();
        StateCodec::load(&mut back, &Json::parse(&text).expect("valid")).expect("loads");
        assert_eq!(back, s);
        assert_eq!(
            StateCodec::save(&mut back).expect("saves").to_string(),
            text
        );
    }

    #[test]
    fn i64_and_f64_encodings_are_exact() {
        for x in [0i64, 1, -1, i64::MAX, i64::MIN] {
            let mut v = x;
            let text = StateCodec::save(&mut v).expect("saves").to_string();
            let mut back = 0i64;
            StateCodec::load(&mut back, &Json::parse(&text).expect("valid")).expect("loads");
            assert_eq!(back, x, "{text}");
        }
        for x in [0.0, -0.0, f64::INFINITY, f64::MIN_POSITIVE, f64::NAN] {
            let mut v = x;
            let j = StateCodec::save(&mut v).expect("saves");
            let mut back = 1.5;
            StateCodec::load(&mut back, &j).expect("loads");
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn bad_value_of_each_kind_is_rejected_by_field_name() {
        let cases: &[(&str, Json)] = &[
            ("small", Json::UInt(256)),
            ("wide", Json::UInt(1 << 32)),
            ("count", Json::Int(-1)),
            ("index", Json::Str("7".into())),
            ("delta", Json::UInt(u64::MAX)),
            ("ratio", Json::Str("3fd555555555555".into())),
            ("ratio", Json::Str("3fd555555555555g".into())),
            ("on", Json::UInt(1)),
            ("maybe", Json::Bool(false)),
            ("fixed", Json::Arr(vec![Json::UInt(1)])),
            ("grow", Json::UInt(5)),
            ("queue", Json::Arr(vec![Json::Null])),
            (
                "pair",
                Json::Arr(vec![Json::UInt(1), Json::Bool(true), Json::Null]),
            ),
            ("slot", Json::UInt(SlotIdx::MAX as u64)),
        ];
        let good = StateCodec::save(&mut sample()).expect("saves");
        for (key, bad) in cases {
            let Json::Obj(mut pairs) = good.clone() else {
                panic!("a saved struct is an object")
            };
            for (k, v) in &mut pairs {
                if k == key {
                    *v = bad.clone();
                }
            }
            let Err(err) = StateCodec::load(&mut Sample::default(), &Json::Obj(pairs)) else {
                panic!("{key} = {bad:?} must be rejected")
            };
            assert!(err.starts_with(&format!("{key}: ")), "{err}");
        }
        let Json::Obj(mut pairs) = good else {
            panic!("a saved struct is an object")
        };
        pairs.retain(|(k, _)| k != "grow");
        let err = StateCodec::load(&mut Sample::default(), &Json::Obj(pairs)).unwrap_err();
        assert_eq!(err, "missing field \"grow\"");
    }

    #[test]
    fn flag_encodes_two_valued_enums_as_booleans() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Kind {
            Read,
            Write,
        }
        struct Req(Kind);
        impl State for Req {
            fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
                c.flag("write", &mut self.0, [Kind::Read, Kind::Write])
            }
        }
        let j = StateCodec::save(&mut Req(Kind::Write)).expect("saves");
        assert_eq!(j.to_string(), "{\"write\":true}");
        let mut back = Req(Kind::Read);
        StateCodec::load(&mut back, &j).expect("loads");
        assert_eq!(back.0, Kind::Write);
    }
}
