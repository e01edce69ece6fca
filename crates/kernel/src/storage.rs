//! The storage server.
//!
//! A transparent restart is not possible unless a component's interesting
//! state survives its crash.  NewtOS therefore runs a storage process
//! dedicated to keeping other components' recoverable state as key/value
//! pairs (paper §V-D): UDP stores its socket 4-tuples there, TCP its
//! listening sockets and connection summaries, IP its interface and routing
//! configuration, the packet filter its rules.  A component started in
//! *restart* mode asks the storage server for its previous state; if the
//! storage server itself crashes, every other server simply stores its state
//! again.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use serde::de::DeserializeOwned;
use serde::Serialize;

/// Errors returned by the storage server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// No value is stored under the requested key.
    Missing {
        /// The component namespace that was queried.
        component: String,
        /// The key that was queried.
        key: String,
    },
    /// The stored bytes could not be decoded into the requested type.
    Corrupt(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Missing { component, key } => {
                write!(f, "no value stored under {component}/{key}")
            }
            StorageError::Corrupt(key) => {
                write!(f, "stored value under {key} could not be decoded")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Counters describing storage-server traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Successful store operations.
    pub stores: u64,
    /// Successful retrieve operations.
    pub retrievals: u64,
    /// Retrievals that found nothing (e.g. a fresh start, or after the
    /// storage server itself was wiped).
    pub misses: u64,
    /// Number of keys currently stored.
    pub keys: usize,
}

/// The key/value state store used for crash recovery.
///
/// Values are serialised with `serde` so that each server can stash whatever
/// structured state it needs.  Keys are namespaced per component so that a
/// recovering server only sees its own state.
///
/// # Examples
///
/// ```
/// use newt_kernel::storage::StorageServer;
/// use serde::{Deserialize, Serialize};
///
/// #[derive(Serialize, Deserialize, PartialEq, Debug)]
/// struct UdpSocketState { local_port: u16, remote: Option<(u32, u16)> }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let storage = StorageServer::new();
/// storage.store("udp", "socket/5353", &UdpSocketState { local_port: 5353, remote: None });
/// let state: UdpSocketState = storage.retrieve("udp", "socket/5353")?;
/// assert_eq!(state.local_port, 5353);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct StorageServer {
    entries: RwLock<HashMap<(String, String), Vec<u8>>>,
    stores: AtomicU64,
    retrievals: AtomicU64,
    misses: AtomicU64,
}

impl StorageServer {
    /// Creates an empty storage server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `value` under `component`/`key`, overwriting any previous
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if the value cannot be serialised (which only happens for
    /// types whose `Serialize` implementation fails, e.g. maps with
    /// non-string keys in JSON; the binary encoding used here accepts all
    /// `serde` types the stack stores).
    pub fn store<T: Serialize>(&self, component: &str, key: &str, value: &T) {
        let encoded = encode(value);
        self.entries
            .write()
            .insert((component.to_string(), key.to_string()), encoded);
        self.stores.fetch_add(1, Ordering::Relaxed);
    }

    /// Retrieves the value stored under `component`/`key`.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Missing`] when nothing is stored and
    /// [`StorageError::Corrupt`] when the bytes cannot be decoded as `T`.
    pub fn retrieve<T: DeserializeOwned>(
        &self,
        component: &str,
        key: &str,
    ) -> Result<T, StorageError> {
        let entries = self.entries.read();
        match entries.get(&(component.to_string(), key.to_string())) {
            Some(bytes) => {
                self.retrievals.fetch_add(1, Ordering::Relaxed);
                decode(bytes).ok_or_else(|| StorageError::Corrupt(format!("{component}/{key}")))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Err(StorageError::Missing {
                    component: component.to_string(),
                    key: key.to_string(),
                })
            }
        }
    }

    /// Lists the keys stored for `component`, sorted.
    pub fn keys(&self, component: &str) -> Vec<String> {
        let mut keys: Vec<String> = self
            .entries
            .read()
            .keys()
            .filter(|(c, _)| c == component)
            .map(|(_, k)| k.clone())
            .collect();
        keys.sort();
        keys
    }

    /// Returns the approximate number of bytes of state stored for
    /// `component` (used to reproduce Table I's "size of recoverable state").
    pub fn component_size(&self, component: &str) -> usize {
        self.entries
            .read()
            .iter()
            .filter(|((c, _), _)| c == component)
            .map(|((_, k), v)| k.len() + v.len())
            .sum()
    }

    /// Returns traffic counters.
    pub fn stats(&self) -> StorageStats {
        StorageStats {
            stores: self.stores.load(Ordering::Relaxed),
            retrievals: self.retrievals.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            keys: self.entries.read().len(),
        }
    }
}

/// A minimal self-describing binary encoding for `serde` values.
///
/// The storage server does not interpret stored values; it only needs a
/// stable round trip.  To avoid pulling in a full serialisation format crate
/// we encode through `serde_json`-free means: values are serialised into the
/// debug-stable `postcard`-like format implemented below, which supports the
/// subset of `serde` used by the stack's state types (integers, strings,
/// sequences, maps, options, structs, enums, tuples, booleans).
///
/// Public because live-update state transfer reuses it: components encode
/// their [`StateSnapshot`](crate::rs::StateSnapshot) payloads with the same
/// codec their persisted summaries already round-trip through.
pub mod codec {
    use serde::de::DeserializeOwned;
    use serde::Serialize;

    /// Encodes using the `serde` data model driven into a compact byte
    /// stream.
    pub fn encode<T: Serialize>(value: &T) -> Vec<u8> {
        let mut out = Vec::new();
        value
            .serialize(&mut ser::Encoder { out: &mut out })
            .expect("state types used by the stack are always encodable");
        out
    }

    /// Decodes a value previously produced by [`encode`].
    pub fn decode<T: DeserializeOwned>(bytes: &[u8]) -> Option<T> {
        let mut de = de::Decoder { input: bytes };
        T::deserialize(&mut de).ok()
    }

    mod ser {
        use serde::ser::{self, Serialize};
        use std::fmt;

        #[derive(Debug)]
        pub struct Error(String);

        impl fmt::Display for Error {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
        impl std::error::Error for Error {}
        impl ser::Error for Error {
            fn custom<T: fmt::Display>(msg: T) -> Self {
                Error(msg.to_string())
            }
        }

        #[derive(Debug)]
        pub struct Encoder<'a> {
            pub out: &'a mut Vec<u8>,
        }

        impl Encoder<'_> {
            fn put_u64(&mut self, v: u64) {
                self.out.extend_from_slice(&v.to_le_bytes());
            }
            fn put_bytes(&mut self, v: &[u8]) {
                self.put_u64(v.len() as u64);
                self.out.extend_from_slice(v);
            }
        }

        macro_rules! forward_int {
            ($name:ident, $ty:ty) => {
                fn $name(self, v: $ty) -> Result<(), Error> {
                    self.put_u64(v as u64);
                    Ok(())
                }
            };
        }

        impl<'a, 'b> ser::Serializer for &'a mut Encoder<'b> {
            type Ok = ();
            type Error = Error;
            type SerializeSeq = Self;
            type SerializeTuple = Self;
            type SerializeTupleStruct = Self;
            type SerializeTupleVariant = Self;
            type SerializeMap = Self;
            type SerializeStruct = Self;
            type SerializeStructVariant = Self;

            fn serialize_bool(self, v: bool) -> Result<(), Error> {
                self.out.push(v as u8);
                Ok(())
            }
            forward_int!(serialize_i8, i8);
            forward_int!(serialize_i16, i16);
            forward_int!(serialize_i32, i32);
            forward_int!(serialize_i64, i64);
            forward_int!(serialize_u8, u8);
            forward_int!(serialize_u16, u16);
            forward_int!(serialize_u32, u32);
            forward_int!(serialize_u64, u64);
            fn serialize_f32(self, v: f32) -> Result<(), Error> {
                self.put_u64(v.to_bits() as u64);
                Ok(())
            }
            fn serialize_f64(self, v: f64) -> Result<(), Error> {
                self.put_u64(v.to_bits());
                Ok(())
            }
            fn serialize_char(self, v: char) -> Result<(), Error> {
                self.put_u64(v as u64);
                Ok(())
            }
            fn serialize_str(self, v: &str) -> Result<(), Error> {
                self.put_bytes(v.as_bytes());
                Ok(())
            }
            fn serialize_bytes(self, v: &[u8]) -> Result<(), Error> {
                self.put_bytes(v);
                Ok(())
            }
            fn serialize_none(self) -> Result<(), Error> {
                self.out.push(0);
                Ok(())
            }
            fn serialize_some<T: ?Sized + Serialize>(self, value: &T) -> Result<(), Error> {
                self.out.push(1);
                value.serialize(self)
            }
            fn serialize_unit(self) -> Result<(), Error> {
                Ok(())
            }
            fn serialize_unit_struct(self, _name: &'static str) -> Result<(), Error> {
                Ok(())
            }
            fn serialize_unit_variant(
                self,
                _name: &'static str,
                variant_index: u32,
                _variant: &'static str,
            ) -> Result<(), Error> {
                self.put_u64(variant_index as u64);
                Ok(())
            }
            fn serialize_newtype_struct<T: ?Sized + Serialize>(
                self,
                _name: &'static str,
                value: &T,
            ) -> Result<(), Error> {
                value.serialize(self)
            }
            fn serialize_newtype_variant<T: ?Sized + Serialize>(
                self,
                _name: &'static str,
                variant_index: u32,
                _variant: &'static str,
                value: &T,
            ) -> Result<(), Error> {
                self.put_u64(variant_index as u64);
                value.serialize(self)
            }
            fn serialize_seq(self, len: Option<usize>) -> Result<Self, Error> {
                let len =
                    len.ok_or_else(|| ser::Error::custom("sequences must know their length"))?;
                self.put_u64(len as u64);
                Ok(self)
            }
            fn serialize_tuple(self, _len: usize) -> Result<Self, Error> {
                Ok(self)
            }
            fn serialize_tuple_struct(
                self,
                _name: &'static str,
                _len: usize,
            ) -> Result<Self, Error> {
                Ok(self)
            }
            fn serialize_tuple_variant(
                self,
                _name: &'static str,
                variant_index: u32,
                _variant: &'static str,
                _len: usize,
            ) -> Result<Self, Error> {
                self.put_u64(variant_index as u64);
                Ok(self)
            }
            fn serialize_map(self, len: Option<usize>) -> Result<Self, Error> {
                let len = len.ok_or_else(|| ser::Error::custom("maps must know their length"))?;
                self.put_u64(len as u64);
                Ok(self)
            }
            fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, Error> {
                Ok(self)
            }
            fn serialize_struct_variant(
                self,
                _name: &'static str,
                variant_index: u32,
                _variant: &'static str,
                _len: usize,
            ) -> Result<Self, Error> {
                self.put_u64(variant_index as u64);
                Ok(self)
            }
        }

        macro_rules! impl_compound {
            ($trait:ident, $method:ident) => {
                impl<'a, 'b> ser::$trait for &'a mut Encoder<'b> {
                    type Ok = ();
                    type Error = Error;
                    fn $method<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Error> {
                        value.serialize(&mut **self)
                    }
                    fn end(self) -> Result<(), Error> {
                        Ok(())
                    }
                }
            };
        }
        impl_compound!(SerializeSeq, serialize_element);
        impl_compound!(SerializeTuple, serialize_element);
        impl_compound!(SerializeTupleStruct, serialize_field);
        impl_compound!(SerializeTupleVariant, serialize_field);

        impl<'a, 'b> ser::SerializeMap for &'a mut Encoder<'b> {
            type Ok = ();
            type Error = Error;
            fn serialize_key<T: ?Sized + Serialize>(&mut self, key: &T) -> Result<(), Error> {
                key.serialize(&mut **self)
            }
            fn serialize_value<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Error> {
                value.serialize(&mut **self)
            }
            fn end(self) -> Result<(), Error> {
                Ok(())
            }
        }

        impl<'a, 'b> ser::SerializeStruct for &'a mut Encoder<'b> {
            type Ok = ();
            type Error = Error;
            fn serialize_field<T: ?Sized + Serialize>(
                &mut self,
                _key: &'static str,
                value: &T,
            ) -> Result<(), Error> {
                value.serialize(&mut **self)
            }
            fn end(self) -> Result<(), Error> {
                Ok(())
            }
        }

        impl<'a, 'b> ser::SerializeStructVariant for &'a mut Encoder<'b> {
            type Ok = ();
            type Error = Error;
            fn serialize_field<T: ?Sized + Serialize>(
                &mut self,
                _key: &'static str,
                value: &T,
            ) -> Result<(), Error> {
                value.serialize(&mut **self)
            }
            fn end(self) -> Result<(), Error> {
                Ok(())
            }
        }
    }

    mod de {
        use serde::de::{self, DeserializeSeed, IntoDeserializer, Visitor};
        use std::fmt;

        #[derive(Debug)]
        pub struct Error(String);

        impl fmt::Display for Error {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
        impl std::error::Error for Error {}
        impl de::Error for Error {
            fn custom<T: fmt::Display>(msg: T) -> Self {
                Error(msg.to_string())
            }
        }

        #[derive(Debug)]
        pub struct Decoder<'de> {
            pub input: &'de [u8],
        }

        impl<'de> Decoder<'de> {
            fn take(&mut self, n: usize) -> Result<&'de [u8], Error> {
                if self.input.len() < n {
                    return Err(de::Error::custom("unexpected end of stored value"));
                }
                let (head, rest) = self.input.split_at(n);
                self.input = rest;
                Ok(head)
            }
            fn get_u64(&mut self) -> Result<u64, Error> {
                let bytes = self.take(8)?;
                Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes taken")))
            }
            fn get_u8(&mut self) -> Result<u8, Error> {
                Ok(self.take(1)?[0])
            }
            fn get_bytes(&mut self) -> Result<&'de [u8], Error> {
                let len = self.get_u64()? as usize;
                self.take(len)
            }
        }

        macro_rules! forward_int_de {
            ($name:ident, $visit:ident, $ty:ty) => {
                fn $name<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                    let v = self.get_u64()?;
                    visitor.$visit(v as $ty)
                }
            };
        }

        impl<'de> de::Deserializer<'de> for &mut Decoder<'de> {
            type Error = Error;

            fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, Error> {
                Err(de::Error::custom(
                    "the storage codec is not self-describing",
                ))
            }
            fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                visitor.visit_bool(self.get_u8()? != 0)
            }
            forward_int_de!(deserialize_i8, visit_i8, i8);
            forward_int_de!(deserialize_i16, visit_i16, i16);
            forward_int_de!(deserialize_i32, visit_i32, i32);
            forward_int_de!(deserialize_i64, visit_i64, i64);
            forward_int_de!(deserialize_u8, visit_u8, u8);
            forward_int_de!(deserialize_u16, visit_u16, u16);
            forward_int_de!(deserialize_u32, visit_u32, u32);
            forward_int_de!(deserialize_u64, visit_u64, u64);
            fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                let bits = self.get_u64()? as u32;
                visitor.visit_f32(f32::from_bits(bits))
            }
            fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                let bits = self.get_u64()?;
                visitor.visit_f64(f64::from_bits(bits))
            }
            fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                let v = self.get_u64()? as u32;
                visitor.visit_char(char::from_u32(v).ok_or_else(|| de::Error::custom("bad char"))?)
            }
            fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                let bytes = self.get_bytes()?;
                visitor.visit_str(std::str::from_utf8(bytes).map_err(de::Error::custom)?)
            }
            fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                self.deserialize_str(visitor)
            }
            fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                let bytes = self.get_bytes()?;
                visitor.visit_bytes(bytes)
            }
            fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                self.deserialize_bytes(visitor)
            }
            fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                if self.get_u8()? == 0 {
                    visitor.visit_none()
                } else {
                    visitor.visit_some(self)
                }
            }
            fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                visitor.visit_unit()
            }
            fn deserialize_unit_struct<V: Visitor<'de>>(
                self,
                _name: &'static str,
                visitor: V,
            ) -> Result<V::Value, Error> {
                visitor.visit_unit()
            }
            fn deserialize_newtype_struct<V: Visitor<'de>>(
                self,
                _name: &'static str,
                visitor: V,
            ) -> Result<V::Value, Error> {
                visitor.visit_newtype_struct(self)
            }
            fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                let len = self.get_u64()? as usize;
                visitor.visit_seq(Counted {
                    de: self,
                    remaining: len,
                })
            }
            fn deserialize_tuple<V: Visitor<'de>>(
                self,
                len: usize,
                visitor: V,
            ) -> Result<V::Value, Error> {
                visitor.visit_seq(Counted {
                    de: self,
                    remaining: len,
                })
            }
            fn deserialize_tuple_struct<V: Visitor<'de>>(
                self,
                _name: &'static str,
                len: usize,
                visitor: V,
            ) -> Result<V::Value, Error> {
                visitor.visit_seq(Counted {
                    de: self,
                    remaining: len,
                })
            }
            fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                let len = self.get_u64()? as usize;
                visitor.visit_map(Counted {
                    de: self,
                    remaining: len,
                })
            }
            fn deserialize_struct<V: Visitor<'de>>(
                self,
                _name: &'static str,
                fields: &'static [&'static str],
                visitor: V,
            ) -> Result<V::Value, Error> {
                visitor.visit_seq(Counted {
                    de: self,
                    remaining: fields.len(),
                })
            }
            fn deserialize_enum<V: Visitor<'de>>(
                self,
                _name: &'static str,
                _variants: &'static [&'static str],
                visitor: V,
            ) -> Result<V::Value, Error> {
                visitor.visit_enum(EnumAccess { de: self })
            }
            fn deserialize_identifier<V: Visitor<'de>>(
                self,
                visitor: V,
            ) -> Result<V::Value, Error> {
                let idx = self.get_u64()? as u32;
                visitor.visit_u32(idx)
            }
            fn deserialize_ignored_any<V: Visitor<'de>>(
                self,
                _visitor: V,
            ) -> Result<V::Value, Error> {
                Err(de::Error::custom("cannot skip values in the storage codec"))
            }
        }

        struct Counted<'a, 'de> {
            de: &'a mut Decoder<'de>,
            remaining: usize,
        }

        impl<'de, 'a> de::SeqAccess<'de> for Counted<'a, 'de> {
            type Error = Error;
            fn next_element_seed<T: DeserializeSeed<'de>>(
                &mut self,
                seed: T,
            ) -> Result<Option<T::Value>, Error> {
                if self.remaining == 0 {
                    return Ok(None);
                }
                self.remaining -= 1;
                seed.deserialize(&mut *self.de).map(Some)
            }
            fn size_hint(&self) -> Option<usize> {
                Some(self.remaining)
            }
        }

        impl<'de, 'a> de::MapAccess<'de> for Counted<'a, 'de> {
            type Error = Error;
            fn next_key_seed<K: DeserializeSeed<'de>>(
                &mut self,
                seed: K,
            ) -> Result<Option<K::Value>, Error> {
                if self.remaining == 0 {
                    return Ok(None);
                }
                self.remaining -= 1;
                seed.deserialize(&mut *self.de).map(Some)
            }
            fn next_value_seed<V: DeserializeSeed<'de>>(
                &mut self,
                seed: V,
            ) -> Result<V::Value, Error> {
                seed.deserialize(&mut *self.de)
            }
            fn size_hint(&self) -> Option<usize> {
                Some(self.remaining)
            }
        }

        struct EnumAccess<'a, 'de> {
            de: &'a mut Decoder<'de>,
        }

        impl<'de, 'a> de::EnumAccess<'de> for EnumAccess<'a, 'de> {
            type Error = Error;
            type Variant = VariantAccess<'a, 'de>;
            fn variant_seed<V: DeserializeSeed<'de>>(
                self,
                seed: V,
            ) -> Result<(V::Value, Self::Variant), Error> {
                let index = self.de.get_u64()? as u32;
                let value = seed.deserialize(index.into_deserializer())?;
                Ok((value, VariantAccess { de: self.de }))
            }
        }

        struct VariantAccess<'a, 'de> {
            de: &'a mut Decoder<'de>,
        }

        impl<'de, 'a> de::VariantAccess<'de> for VariantAccess<'a, 'de> {
            type Error = Error;
            fn unit_variant(self) -> Result<(), Error> {
                Ok(())
            }
            fn newtype_variant_seed<T: DeserializeSeed<'de>>(
                self,
                seed: T,
            ) -> Result<T::Value, Error> {
                seed.deserialize(self.de)
            }
            fn tuple_variant<V: Visitor<'de>>(
                self,
                len: usize,
                visitor: V,
            ) -> Result<V::Value, Error> {
                visitor.visit_seq(Counted {
                    de: self.de,
                    remaining: len,
                })
            }
            fn struct_variant<V: Visitor<'de>>(
                self,
                fields: &'static [&'static str],
                visitor: V,
            ) -> Result<V::Value, Error> {
                visitor.visit_seq(Counted {
                    de: self.de,
                    remaining: fields.len(),
                })
            }
        }
    }
}

use codec::{decode, encode};

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct TcpSocketState {
        local: (u32, u16),
        remote: Option<(u32, u16)>,
        listening: bool,
        backlog: Vec<u64>,
        label: String,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum FilterAction {
        Pass,
        Block { reason: String },
        RateLimit(u32),
    }

    #[test]
    fn store_retrieve_round_trip() {
        let storage = StorageServer::new();
        let state = TcpSocketState {
            local: (0x0a000001, 22),
            remote: Some((0x0a000002, 51515)),
            listening: false,
            backlog: vec![1, 2, 3],
            label: "ssh".into(),
        };
        storage.store("tcp", "socket/22", &state);
        let restored: TcpSocketState = storage.retrieve("tcp", "socket/22").unwrap();
        assert_eq!(restored, state);
    }

    #[test]
    fn missing_key_is_reported() {
        let storage = StorageServer::new();
        let err = storage.retrieve::<u32>("ip", "routes").unwrap_err();
        assert!(matches!(err, StorageError::Missing { .. }));
        assert_eq!(storage.stats().misses, 1);
    }

    #[test]
    fn enums_and_maps_round_trip() {
        let storage = StorageServer::new();
        let mut rules: BTreeMap<String, FilterAction> = BTreeMap::new();
        rules.insert("allow-ssh".into(), FilterAction::Pass);
        rules.insert(
            "deny-telnet".into(),
            FilterAction::Block {
                reason: "legacy".into(),
            },
        );
        rules.insert("limit-dns".into(), FilterAction::RateLimit(100));
        storage.store("pf", "rules", &rules);
        let restored: BTreeMap<String, FilterAction> = storage.retrieve("pf", "rules").unwrap();
        assert_eq!(restored, rules);
    }

    #[test]
    fn overwrite_replaces_value() {
        let storage = StorageServer::new();
        storage.store("udp", "socket/53", &1u32);
        storage.store("udp", "socket/53", &2u32);
        assert_eq!(storage.retrieve::<u32>("udp", "socket/53").unwrap(), 2);
    }

    #[test]
    fn keys_are_namespaced_per_component() {
        let storage = StorageServer::new();
        storage.store("udp", "socket/1", &1u8);
        storage.store("udp", "socket/2", &2u8);
        storage.store("tcp", "socket/1", &3u8);
        assert_eq!(storage.keys("udp"), vec!["socket/1", "socket/2"]);
        assert_eq!(storage.keys("tcp"), vec!["socket/1"]);
        assert!(storage.keys("ip").is_empty());
    }

    #[test]
    fn component_size_reflects_stored_state() {
        let storage = StorageServer::new();
        assert_eq!(storage.component_size("tcp"), 0);
        storage.store("tcp", "socket/1", &vec![0u8; 100]);
        storage.store("ip", "config", &1u8);
        assert!(storage.component_size("tcp") > storage.component_size("ip"));
    }

    #[test]
    fn corrupt_data_detected_on_type_confusion() {
        let storage = StorageServer::new();
        storage.store("x", "k", &"short");
        // Asking for a type whose decoding runs past the stored bytes fails.
        let err = storage
            .retrieve::<(u64, u64, u64, u64, u64)>("x", "k")
            .unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
    }

    #[test]
    fn stats_count_operations() {
        let storage = StorageServer::new();
        storage.store("a", "k", &1u8);
        let _: u8 = storage.retrieve("a", "k").unwrap();
        let _ = storage.retrieve::<u8>("a", "missing");
        let stats = storage.stats();
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.retrievals, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.keys, 1);
    }
}
