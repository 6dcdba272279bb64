//! Serde serialization tests for the data-structure types (C-SERDE):
//! configs and results must serialize with stable field names so
//! experiments can be archived and replayed. A minimal in-crate value-tree
//! serializer is used because no JSON crate is in the approved offline
//! dependency set.

use collaborative_vr::prelude::*;

/// A minimal self-describing value tree, plus serializer/deserializer,
/// sufficient for the crate's plain-data types. This doubles as a test of
/// the types' serde implementations without pulling in serde_json.
mod mini {
    use serde::ser::{self, Serialize};
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Unit,
        Bool(bool),
        I64(i64),
        U64(u64),
        F64(f64),
        Str(String),
        Seq(Vec<Value>),
        Map(BTreeMap<String, Value>),
    }

    pub fn to_value<T: Serialize>(value: &T) -> Value {
        value.serialize(Serializer).expect("serializable")
    }

    pub struct Serializer;

    #[derive(Debug)]
    pub struct Error(String);

    impl std::fmt::Display for Error {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }
    impl std::error::Error for Error {}
    impl ser::Error for Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            Error(msg.to_string())
        }
    }

    pub struct SeqSer(Vec<Value>);
    pub struct MapSer(BTreeMap<String, Value>);

    impl ser::SerializeSeq for SeqSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_element<T: ?Sized + Serialize>(&mut self, v: &T) -> Result<(), Error> {
            self.0.push(v.serialize(Serializer)?);
            Ok(())
        }
        fn end(self) -> Result<Value, Error> {
            Ok(Value::Seq(self.0))
        }
    }
    impl ser::SerializeTuple for SeqSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_element<T: ?Sized + Serialize>(&mut self, v: &T) -> Result<(), Error> {
            ser::SerializeSeq::serialize_element(self, v)
        }
        fn end(self) -> Result<Value, Error> {
            ser::SerializeSeq::end(self)
        }
    }
    impl ser::SerializeTupleStruct for SeqSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_field<T: ?Sized + Serialize>(&mut self, v: &T) -> Result<(), Error> {
            ser::SerializeSeq::serialize_element(self, v)
        }
        fn end(self) -> Result<Value, Error> {
            ser::SerializeSeq::end(self)
        }
    }
    impl ser::SerializeStruct for MapSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_field<T: ?Sized + Serialize>(
            &mut self,
            key: &'static str,
            v: &T,
        ) -> Result<(), Error> {
            self.0.insert(key.to_string(), v.serialize(Serializer)?);
            Ok(())
        }
        fn end(self) -> Result<Value, Error> {
            Ok(Value::Map(self.0))
        }
    }

    impl ser::Serializer for Serializer {
        type Ok = Value;
        type Error = Error;
        type SerializeSeq = SeqSer;
        type SerializeTuple = SeqSer;
        type SerializeTupleStruct = SeqSer;
        type SerializeTupleVariant = ser::Impossible<Value, Error>;
        type SerializeMap = ser::Impossible<Value, Error>;
        type SerializeStruct = MapSer;
        type SerializeStructVariant = ser::Impossible<Value, Error>;

        fn serialize_bool(self, v: bool) -> Result<Value, Error> {
            Ok(Value::Bool(v))
        }
        fn serialize_i8(self, v: i8) -> Result<Value, Error> {
            Ok(Value::I64(v.into()))
        }
        fn serialize_i16(self, v: i16) -> Result<Value, Error> {
            Ok(Value::I64(v.into()))
        }
        fn serialize_i32(self, v: i32) -> Result<Value, Error> {
            Ok(Value::I64(v.into()))
        }
        fn serialize_i64(self, v: i64) -> Result<Value, Error> {
            Ok(Value::I64(v))
        }
        fn serialize_u8(self, v: u8) -> Result<Value, Error> {
            Ok(Value::U64(v.into()))
        }
        fn serialize_u16(self, v: u16) -> Result<Value, Error> {
            Ok(Value::U64(v.into()))
        }
        fn serialize_u32(self, v: u32) -> Result<Value, Error> {
            Ok(Value::U64(v.into()))
        }
        fn serialize_u64(self, v: u64) -> Result<Value, Error> {
            Ok(Value::U64(v))
        }
        fn serialize_f32(self, v: f32) -> Result<Value, Error> {
            Ok(Value::F64(v.into()))
        }
        fn serialize_f64(self, v: f64) -> Result<Value, Error> {
            Ok(Value::F64(v))
        }
        fn serialize_char(self, v: char) -> Result<Value, Error> {
            Ok(Value::Str(v.to_string()))
        }
        fn serialize_str(self, v: &str) -> Result<Value, Error> {
            Ok(Value::Str(v.to_string()))
        }
        fn serialize_bytes(self, _v: &[u8]) -> Result<Value, Error> {
            Err(ser::Error::custom("bytes unsupported"))
        }
        fn serialize_none(self) -> Result<Value, Error> {
            Ok(Value::Unit)
        }
        fn serialize_some<T: ?Sized + Serialize>(self, v: &T) -> Result<Value, Error> {
            v.serialize(Serializer)
        }
        fn serialize_unit(self) -> Result<Value, Error> {
            Ok(Value::Unit)
        }
        fn serialize_unit_struct(self, _n: &'static str) -> Result<Value, Error> {
            Ok(Value::Unit)
        }
        fn serialize_unit_variant(
            self,
            _n: &'static str,
            _i: u32,
            variant: &'static str,
        ) -> Result<Value, Error> {
            Ok(Value::Str(variant.to_string()))
        }
        fn serialize_newtype_struct<T: ?Sized + Serialize>(
            self,
            _n: &'static str,
            v: &T,
        ) -> Result<Value, Error> {
            v.serialize(Serializer)
        }
        fn serialize_newtype_variant<T: ?Sized + Serialize>(
            self,
            _n: &'static str,
            _i: u32,
            _v: &'static str,
            _value: &T,
        ) -> Result<Value, Error> {
            Err(ser::Error::custom("newtype variant unsupported"))
        }
        fn serialize_seq(self, len: Option<usize>) -> Result<SeqSer, Error> {
            Ok(SeqSer(Vec::with_capacity(len.unwrap_or(0))))
        }
        fn serialize_tuple(self, len: usize) -> Result<SeqSer, Error> {
            self.serialize_seq(Some(len))
        }
        fn serialize_tuple_struct(self, _n: &'static str, len: usize) -> Result<SeqSer, Error> {
            self.serialize_seq(Some(len))
        }
        fn serialize_tuple_variant(
            self,
            _n: &'static str,
            _i: u32,
            _v: &'static str,
            _len: usize,
        ) -> Result<Self::SerializeTupleVariant, Error> {
            Err(ser::Error::custom("tuple variant unsupported"))
        }
        fn serialize_map(self, _len: Option<usize>) -> Result<Self::SerializeMap, Error> {
            Err(ser::Error::custom("maps unsupported"))
        }
        fn serialize_struct(self, _n: &'static str, _len: usize) -> Result<MapSer, Error> {
            Ok(MapSer(BTreeMap::new()))
        }
        fn serialize_struct_variant(
            self,
            _n: &'static str,
            _i: u32,
            _v: &'static str,
            _len: usize,
        ) -> Result<Self::SerializeStructVariant, Error> {
            Err(ser::Error::custom("struct variant unsupported"))
        }
    }

    /// Extract a field path from a serialized struct for assertions.
    pub fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
        match v {
            Value::Map(m) => m.get(name).expect("field present"),
            _ => panic!("not a struct value"),
        }
    }

    /// Deserializes scalar leaves back out (enough to validate the pair of
    /// impls on plain-data types).
    pub fn as_f64(v: &Value) -> f64 {
        match v {
            Value::F64(x) => *x,
            Value::I64(x) => *x as f64,
            Value::U64(x) => *x as f64,
            _ => panic!("not numeric"),
        }
    }
}

#[test]
fn quality_level_serializes_as_its_number() {
    let q = QualityLevel::new(4);
    let v = mini::to_value(&q);
    assert_eq!(v, mini::Value::U64(4));
}

#[test]
fn qoe_params_expose_alpha_beta_fields() {
    let p = QoeParams::system_default();
    let v = mini::to_value(&p);
    assert_eq!(mini::as_f64(mini::field(&v, "alpha")), 0.1);
    assert_eq!(mini::as_f64(mini::field(&v, "beta")), 0.5);
}

#[test]
fn rate_table_serializes_per_level() {
    let t = TabulatedRate::paper_profile();
    let v = mini::to_value(&t);
    match mini::field(&v, "rates") {
        mini::Value::Seq(rates) => {
            assert_eq!(rates.len(), 6);
            assert_eq!(mini::as_f64(&rates[3]), 36.0);
        }
        other => panic!("rates not a sequence: {other:?}"),
    }
}

#[test]
fn user_summary_serializes_all_metrics() {
    let mut acc = UserQoeAccumulator::new(QoeParams::simulation_default());
    acc.record(QualityLevel::new(3), true, 0.4);
    let s = acc.summary();
    let v = mini::to_value(&s);
    for field in [
        "slots",
        "avg_viewed_quality",
        "avg_chosen_quality",
        "avg_delay",
        "variance",
        "hit_rate",
        "total_qoe",
        "qoe_per_slot",
    ] {
        let _ = mini::field(&v, field);
    }
    assert_eq!(mini::as_f64(mini::field(&v, "avg_viewed_quality")), 3.0);
}

#[test]
fn variance_tracker_state_is_serializable() {
    let mut t = VarianceTracker::new();
    t.push(2.0);
    t.push(4.0);
    let v = mini::to_value(&t);
    assert_eq!(mini::as_f64(mini::field(&v, "mean")), 3.0);
    assert_eq!(mini::as_f64(mini::field(&v, "count")), 2.0);
}

#[test]
fn pose_components_serialize_nested() {
    let pose = Pose::new(Vec3::new(1.0, 1.7, -2.0), Orientation::new(30.0, -5.0, 0.0));
    let v = mini::to_value(&pose);
    let position = mini::field(&v, "position");
    assert_eq!(mini::as_f64(mini::field(position, "x")), 1.0);
    let orientation = mini::field(&v, "orientation");
    assert_eq!(mini::as_f64(mini::field(orientation, "yaw")), 30.0);
}

/// Reads a serialized `[f64; N]` / `VecDeque<f64>` field back out.
fn f64_seq(v: &mini::Value) -> Vec<f64> {
    match v {
        mini::Value::Seq(items) => items.iter().map(mini::as_f64).collect(),
        other => panic!("not a sequence: {other:?}"),
    }
}

#[test]
fn predictor_serializes_the_fit_its_predictions_evaluate() {
    // The per-axis fit is state, not a cache the serialized form may drop:
    // a predictor restored from the value tree must predict the same bits
    // without seeing another pose. Rebuild every prediction from the
    // serialized fields alone and compare with the live predictor.
    let window = 5;
    let mut p = LinearPredictor::new(window);
    let (mut mid_window, mut full) = (0, 0);
    for t in 0..9 {
        let t = f64::from(t);
        p.observe(&Pose::new(
            Vec3::new(0.07 * t + 0.002 * t * t, 1.6, -0.04 * t),
            // Crosses the ±180° seam, so the serialized yaw history is the
            // unwrapped one the fit was taken over.
            Orientation::new(
                150.0 + 9.0 * t - 360.0 * f64::from(t > 3.0),
                3.0 * t,
                0.5 * t,
            ),
        ));
        let v = mini::to_value(&p);
        let slope = f64_seq(mini::field(&v, "slope"));
        let intercept = f64_seq(mini::field(&v, "intercept"));
        // The window is row-major: one six-component row per pose,
        // oldest first, fewer than `window` of them until it fills.
        let rows: Vec<Vec<f64>> = match mini::field(&v, "history") {
            mini::Value::Seq(rows) => rows.iter().map(f64_seq).collect(),
            other => panic!("history not a sequence: {other:?}"),
        };
        let observed = rows.len();
        assert_eq!(observed, p.observed());
        assert_eq!(observed, (t as usize + 1).min(window));
        assert!(rows.iter().all(|row| row.len() == 6));
        let newest = rows.last().expect("a pose was observed");
        assert_eq!(newest[4], 3.0 * t, "pitch column");
        assert_eq!(
            newest[3],
            150.0 + 9.0 * t,
            "yaw column holds the unwrapped angle"
        );
        if observed < window {
            mid_window += 1;
        } else {
            full += 1;
        }
        for horizon in [0.0, 1.0, 2.5, -1.25, 7.0] {
            let Some(live) = p.predict_fractional(horizon) else {
                assert!(observed < 2);
                continue;
            };
            let at = observed as f64 - 1.0 + horizon;
            let mut restored = [0.0f64; 6];
            for axis in 0..6 {
                restored[axis] = slope[axis] * at + intercept[axis];
            }
            restored[3] = collaborative_vr::motion::pose::wrap_degrees(restored[3]);
            restored[4] = restored[4].clamp(-90.0, 90.0);
            restored[5] = restored[5].clamp(-90.0, 90.0);
            assert_eq!(
                live.components().map(f64::to_bits),
                restored.map(f64::to_bits),
                "observation {t} horizon {horizon}"
            );
        }
    }
    assert_eq!((mid_window, full), (4, 5));
}
