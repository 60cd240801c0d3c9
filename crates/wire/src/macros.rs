//! The declarative forms a layout is written in: one field list, or one
//! `tag => Variant` table, from which both directions are generated.

/// The codec of a struct from its field list: the fields travel in the
/// order listed, each by its own [`Codec`](crate::Codec).
///
/// ```
/// # #[derive(Debug, PartialEq)]
/// struct Leg { stock: usize, shares: u32, price: f64, scratch: Vec<f64> }
/// wire::record! {
///     Leg { stock, shares, price; scratch }
///     check(leg) {
///         if leg.shares == 0 {
///             return Err(wire::WireError::Invalid("empty leg"));
///         }
///     }
/// }
/// # let leg = Leg { stock: 3, shares: 5, price: 30.0, scratch: vec![] };
/// # assert_eq!(wire::from_bytes::<Leg>(&wire::to_bytes(&leg)).unwrap(), leg);
/// ```
///
/// * `field as SomeAdapter` sends a field of a type this crate does not
///   own through its [`Adapter`](crate::Adapter).
/// * Fields after a `;` are not on the wire; decode default-initialises
///   them (scratch buffers, caches).
/// * `check(v) { .. }` runs on the decoded value before it is returned:
///   it validates geometry (`return Err(..)`), and may size what the
///   `;` fields left empty.
/// * `Name<T>` implements the codec for every `T: Codec`; a tuple struct
///   lists its fields by index (`Symbol { 0 }`).
/// * `pub NameWire for Name { .. }` declares the unit struct `NameWire`
///   and implements `Adapter<Name>` for it instead — the form for a type
///   another crate owns.
#[macro_export]
macro_rules! record {
    (@encode $value:expr, $w:ident { $($field:tt $(as $via:ty)?),* }) => {
        $($crate::__encode!($w, &$value.$field $(, $via)?);)*
    };
    (@decode $r:ident, $name:ident {
        $($field:tt $(as $via:ty)?),* $(; $($rest:ident),*)?
    }) => {
        Ok($name {
            $($field: $crate::__decode!($r $(, $via)?)?,)*
            $($($rest: ::core::default::Default::default(),)*)?
        })
    };
    (@decode $r:ident, $name:ident { $($fields:tt)* } check($v:ident) $check:block) => {{
        #[allow(unused_mut)]
        let mut $v = $crate::record!(@decode $r, $name { $($fields)* })?;
        $check
        Ok($v)
    }};
    (
        $name:ident $(<$($g:ident),+>)? {
            $($field:tt $(as $via:ty)?),* $(,)?
            $(; $($rest:ident),* $(,)?)?
        }
        $(check($v:ident) $check:block)?
    ) => {
        impl$(<$($g: $crate::Codec),+>)? $crate::Codec for $name$(<$($g),+>)? {
            fn encode(&self, w: &mut $crate::Writer) {
                $crate::record!(@encode self, w { $($field $(as $via)?),* });
            }
            fn decode(r: &mut $crate::Reader<'_>) -> ::core::result::Result<Self, $crate::WireError> {
                $crate::record!(@decode r, $name {
                    $($field $(as $via)?),* $(; $($rest),*)?
                } $(check($v) $check)?)
            }
        }
    };
    (
        $vis:vis $adapter:ident for $name:ident {
            $($field:tt $(as $via:ty)?),* $(,)?
            $(; $($rest:ident),* $(,)?)?
        }
        $(check($v:ident) $check:block)?
    ) => {
        #[doc = concat!("Wire form of [`", stringify!($name), "`].")]
        $vis struct $adapter;

        impl $crate::Adapter<$name> for $adapter {
            fn encode(value: &$name, w: &mut $crate::Writer) {
                $crate::record!(@encode value, w { $($field $(as $via)?),* });
            }
            fn decode(r: &mut $crate::Reader<'_>) -> ::core::result::Result<$name, $crate::WireError> {
                $crate::record!(@decode r, $name {
                    $($field $(as $via)?),* $(; $($rest),*)?
                } $(check($v) $check)?)
            }
        }
    };
}

/// The codec of an enum from its tag table: one `u8` tag, then the
/// variant's fields in the order listed. A tag the table does not hold —
/// unknown, or retired and never reused — is refused with the message
/// after the type name.
///
/// ```
/// # #[derive(Debug, PartialEq)]
/// enum Status { Healthy, Degraded(u8), Moved { from: usize, to: usize } }
/// wire::tagged! {
///     Status: "status tag" {
///         0 => Healthy,
///         1 => Degraded(reason),
///         // 2 was `Unknown`.
///         3 => Moved { from, to },
///     }
/// }
/// # let s = Status::Moved { from: 1, to: 2 };
/// # assert_eq!(wire::from_bytes::<Status>(&wire::to_bytes(&s)).unwrap(), s);
/// # assert!(wire::from_bytes::<Status>(&[2]).is_err());
/// ```
///
/// Fields take `as SomeAdapter` as in [`record!`], and `pub NameWire for
/// Name: "..." { .. }` generates an [`Adapter`](crate::Adapter) for an
/// enum another crate owns.
#[macro_export]
macro_rules! tagged {
    (@encode $value:expr, $w:ident, $name:ident {
        $($tag:literal => $variant:ident
            $(($($tf:ident $(as $tv:ty)?),* $(,)?))?
            $({$($nf:ident $(as $nv:ty)?),* $(,)?})?
        ),* $(,)?
    }) => {
        match $value {
            $($name::$variant $(($($tf),*))? $({$($nf),*})? => {
                <u8 as $crate::Codec>::encode(&$tag, $w);
                $($($crate::__encode!($w, $tf $(, $tv)?);)*)?
                $($($crate::__encode!($w, $nf $(, $nv)?);)*)?
            })*
        }
    };
    (@decode $r:ident, $name:ident, $what:literal {
        $($tag:literal => $variant:ident
            $(($($tf:ident $(as $tv:ty)?),* $(,)?))?
            $({$($nf:ident $(as $nv:ty)?),* $(,)?})?
        ),* $(,)?
    }) => {
        match <u8 as $crate::Codec>::decode($r)? {
            $($tag => Ok($name::$variant
                $(($($crate::__decode!($r $(, $tv)?; $tf)?),*))?
                $({$($nf: $crate::__decode!($r $(, $nv)?)?),*})?
            ),)*
            _ => Err($crate::WireError::Invalid($what)),
        }
    };
    ($name:ident: $what:literal { $($table:tt)* }) => {
        impl $crate::Codec for $name {
            fn encode(&self, w: &mut $crate::Writer) {
                $crate::tagged!(@encode self, w, $name { $($table)* })
            }
            fn decode(r: &mut $crate::Reader<'_>) -> ::core::result::Result<Self, $crate::WireError> {
                $crate::tagged!(@decode r, $name, $what { $($table)* })
            }
        }
    };
    ($vis:vis $adapter:ident for $name:ident: $what:literal { $($table:tt)* }) => {
        #[doc = concat!("Wire form of [`", stringify!($name), "`].")]
        $vis struct $adapter;

        impl $crate::Adapter<$name> for $adapter {
            fn encode(value: &$name, w: &mut $crate::Writer) {
                $crate::tagged!(@encode value, w, $name { $($table)* })
            }
            fn decode(r: &mut $crate::Reader<'_>) -> ::core::result::Result<$name, $crate::WireError> {
                $crate::tagged!(@decode r, $name, $what { $($table)* })
            }
        }
    };
}

/// One field out: by its own codec, or through the adapter named.
#[doc(hidden)]
#[macro_export]
macro_rules! __encode {
    ($w:ident, $value:expr) => {
        $crate::Codec::encode($value, $w)
    };
    ($w:ident, $value:expr, $via:ty) => {
        <$via as $crate::Adapter<_>>::encode($value, $w)
    };
}

/// One field in (the binder after `;` only ties a tuple variant's
/// repetition to its fields).
#[doc(hidden)]
#[macro_export]
macro_rules! __decode {
    ($r:ident $(; $binder:ident)?) => {
        $crate::Codec::decode($r)
    };
    ($r:ident, $via:ty $(; $binder:ident)?) => {
        <$via as $crate::Adapter<_>>::decode($r)
    };
}

#[cfg(test)]
mod tests {
    use crate::{from_bytes, to_bytes, Native, WireError};

    /// Stands in for a crate this one does not own.
    mod foreign {
        #[derive(Debug, PartialEq)]
        pub struct Id(pub u64);

        #[derive(Debug, PartialEq)]
        pub struct Event {
            pub id: Id,
            pub parents: Vec<Id>,
            pub args: Vec<(String, Arg)>,
        }

        #[derive(Debug, PartialEq)]
        pub enum Arg {
            U(u64),
            S(String),
            None,
        }
    }
    use foreign::{Arg, Event, Id};

    #[derive(Debug, PartialEq)]
    struct Ring<T> {
        cap: usize,
        items: Vec<T>,
        scratch: Vec<u8>,
    }

    #[derive(Debug, PartialEq)]
    struct Stamped {
        at: u32,
        event: Event,
    }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Empty,
        Line(f64, f64),
        Tagged { event: Event, ring: Ring<u16> },
    }

    record! { IdWire for Id { 0 } }
    record! { EventWire for Event { id as IdWire, parents as Vec<IdWire>, args as Vec<(Native, ArgWire)> } }
    tagged! { ArgWire for Arg: "arg tag" { 0 => U(v), 1 => S(s), 2 => None } }
    record! {
        Ring<T> { cap, items; scratch }
        check(ring) {
            if ring.items.len() > ring.cap {
                return Err(WireError::Invalid("ring geometry"));
            }
            ring.scratch = vec![0; ring.cap];
        }
    }
    record! { Stamped { at, event as EventWire } }
    tagged! {
        Shape: "shape tag" {
            0 => Empty,
            // 1 was `Point`.
            2 => Line(from, to),
            3 => Tagged { event as EventWire, ring },
        }
    }

    fn event() -> Event {
        Event {
            id: Id(7),
            parents: vec![Id(1), Id(2)],
            args: vec![("n".into(), Arg::U(3)), ("why".into(), Arg::S("x".into()))],
        }
    }

    #[test]
    fn generated_layouts_are_the_field_lists_in_order() {
        let ring = Ring {
            cap: 4,
            items: vec![9u16, 8],
            scratch: vec![0; 4],
        };
        // cap, then the length-prefixed items; `scratch` never travels.
        let mut want = to_bytes(&4usize);
        want.extend(to_bytes(&vec![9u16, 8]));
        assert_eq!(to_bytes(&ring), want);
        assert_eq!(from_bytes::<Ring<u16>>(&want).unwrap(), ring);

        // A variant is its tag byte, then its fields; a foreign field's
        // bytes are its adapter's.
        let stamped = Stamped {
            at: 5,
            event: event(),
        };
        let bytes = to_bytes(&stamped);
        assert_eq!(bytes[..4], 5u32.to_le_bytes());
        assert_eq!(from_bytes::<Stamped>(&bytes).unwrap(), stamped);
        for shape in [
            Shape::Empty,
            Shape::Line(0.5, -0.0),
            Shape::Tagged {
                event: event(),
                ring,
            },
        ] {
            let bytes = to_bytes(&shape);
            assert_eq!(from_bytes::<Shape>(&bytes).unwrap(), shape);
            crate::pin::refuses_damage::<Shape>(&bytes);
        }
        assert_eq!(to_bytes(&Shape::Line(1.0, 2.0))[0], 2);
    }

    #[test]
    fn checks_and_absent_tags_refuse() {
        let mut bytes = to_bytes(&1usize);
        bytes.extend(to_bytes(&vec![1u16, 2]));
        assert_eq!(
            from_bytes::<Ring<u16>>(&bytes),
            Err(WireError::Invalid("ring geometry"))
        );
        // The retired tag and an unknown one are both refused.
        for tag in [1u8, 4] {
            assert_eq!(
                from_bytes::<Shape>(&[tag]),
                Err(WireError::Invalid("shape tag"))
            );
        }
    }
}
