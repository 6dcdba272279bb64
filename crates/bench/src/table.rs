//! The one result-table type every experiment prints through: the same
//! cells render the markdown row on stdout, the plot-ready CSV row and
//! the JSON row of a `BENCH_*.json` artifact.

use std::path::Path;

use crate::json::Json;
use crate::write_csv;

/// One cell of a [`Table`] row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Preformatted text, rendered as is everywhere.
    Text(String),
    /// A measurement: three decimals in markdown, full precision in CSV
    /// and JSON.
    Num(f64),
    /// A count.
    Int(u64),
    /// A verdict.
    Bool(bool),
    /// No claim made for this cell: `-` in markdown, empty in CSV,
    /// `null` in JSON.
    Missing,
}

impl From<f64> for Cell {
    fn from(x: f64) -> Self {
        Cell::Num(x)
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Self {
        Cell::Int(n as u64)
    }
}

impl From<bool> for Cell {
    fn from(b: bool) -> Self {
        Cell::Bool(b)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl Cell {
    fn markdown(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Num(x) => format!("{x:.3}"),
            Cell::Int(n) => n.to_string(),
            Cell::Bool(b) => b.to_string(),
            Cell::Missing => "-".to_string(),
        }
    }

    fn csv(&self) -> String {
        match self {
            Cell::Num(x) => x.to_string(),
            Cell::Missing => String::new(),
            other => other.markdown(),
        }
    }

    fn json(&self) -> Json {
        match self {
            Cell::Text(s) => Json::Str(s.clone()),
            Cell::Num(x) => Json::Num(*x),
            Cell::Int(n) => Json::Num(*n as f64),
            Cell::Bool(b) => Json::Bool(*b),
            Cell::Missing => Json::Null,
        }
    }
}

/// A result table that streams its markdown rendering to stdout as rows
/// arrive and keeps the cells for the CSV and JSON renderings.
///
/// A column is `(title, key)`: the markdown header and the CSV/JSON
/// field name. A column with an empty title is data-only — recorded in
/// CSV and JSON, left out of the printed table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    columns: Vec<(&'static str, &'static str)>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Starts a table and prints its markdown header.
    pub fn begin(columns: &[(&'static str, &'static str)]) -> Self {
        let table = Table {
            columns: columns.to_vec(),
            rows: Vec::new(),
        };
        println!("{}", table.markdown_header());
        table
    }

    /// Starts a print-only table whose field names are its titles.
    pub fn titled(titles: &[&'static str]) -> Self {
        let columns: Vec<_> = titles.iter().map(|&t| (t, t)).collect();
        Table::begin(&columns)
    }

    /// Appends a row and prints its markdown rendering.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header's.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "row width != header");
        println!("{}", self.markdown_row(&cells));
        self.rows.push(cells);
    }

    fn printed<'a, T>(&'a self, items: &'a [T]) -> impl Iterator<Item = &'a T> {
        (self.columns.iter().zip(items))
            .filter(|((title, _), _)| !title.is_empty())
            .map(|(_, item)| item)
    }

    /// The header row plus separator, as printed by [`Table::begin`].
    pub fn markdown_header(&self) -> String {
        let titles: Vec<&str> = self.printed(&self.columns).map(|(t, _)| *t).collect();
        let rules = vec!["-".repeat(12); titles.len()];
        format!("{}\n{}", markdown_line(&titles), markdown_line(&rules))
    }

    /// One row as [`Table::row`] prints it.
    pub fn markdown_row(&self, cells: &[Cell]) -> String {
        let rendered: Vec<String> = self.printed(cells).map(Cell::markdown).collect();
        markdown_line(&rendered)
    }

    /// The CSV header (every column's key).
    pub fn csv_header(&self) -> String {
        let keys: Vec<&str> = self.columns.iter().map(|(_, key)| *key).collect();
        keys.join(",")
    }

    /// Every row as a CSV line (every column, data-only ones included).
    pub fn csv_rows(&self) -> Vec<String> {
        (self.rows.iter())
            .map(|row| row.iter().map(Cell::csv).collect::<Vec<_>>().join(","))
            .collect()
    }

    /// Writes the table as `dir/name`.
    pub fn write_csv(&self, dir: &Path, name: &str) {
        write_csv(dir, name, &self.csv_header(), &self.csv_rows());
    }

    /// Every row as a JSON object keyed by column key.
    pub fn json_rows(&self) -> Vec<Json> {
        let object = |row: &Vec<Cell>| {
            Json::Obj(
                (self.columns.iter().zip(row))
                    .map(|((_, key), cell)| (key.to_string(), cell.json()))
                    .collect(),
            )
        };
        self.rows.iter().map(object).collect()
    }
}

fn markdown_line<D: std::fmt::Display>(cells: &[D]) -> String {
    let rendered: Vec<String> = cells.iter().map(|c| format!("{c:>12}")).collect();
    format!("| {} |", rendered.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::begin(&[
            ("setup", "name"),
            ("", "slots"),
            ("wall s", "wall_s"),
            ("speedup", "speedup"),
            ("identical", "identical"),
        ]);
        t.row(vec![
            "setup1".into(),
            4000usize.into(),
            0.123456.into(),
            Cell::Missing,
            true.into(),
        ]);
        t.row(vec![
            "a \"b\"".into(),
            1usize.into(),
            2.0.into(),
            1.5.into(),
            false.into(),
        ]);
        t
    }

    #[test]
    fn one_set_of_cells_renders_markdown_csv_and_json() {
        let t = sample();
        assert_eq!(
            t.markdown_header(),
            "|        setup |       wall s |      speedup |    identical |\n\
             | ------------ | ------------ | ------------ | ------------ |"
        );
        assert_eq!(
            t.markdown_row(&t.rows[0]),
            "|       setup1 |        0.123 |            - |         true |"
        );
        assert_eq!(t.csv_header(), "name,slots,wall_s,speedup,identical");
        assert_eq!(
            t.csv_rows(),
            vec!["setup1,4000,0.123456,,true", "a \"b\",1,2,1.5,false"]
        );

        // The JSON rendering parses back to the same cells.
        let rendered = Json::Arr(t.json_rows());
        let parsed = Json::parse(&rendered.to_string()).expect("valid JSON");
        assert_eq!(parsed, rendered);
        let rows = parsed.as_array().expect("array of rows");
        assert_eq!(rows[0].get("name").and_then(Json::as_str), Some("setup1"));
        assert_eq!(rows[0].get("slots").and_then(Json::as_f64), Some(4000.0));
        assert_eq!(rows[0].get("wall_s").and_then(Json::as_f64), Some(0.123456));
        assert_eq!(rows[0].get("speedup"), Some(&Json::Null));
        assert_eq!(rows[1].get("name").and_then(Json::as_str), Some("a \"b\""));
        assert_eq!(
            rows[1].get("identical").and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_are_rejected() {
        Table::titled(&["a", "b"]).row(vec![1usize.into()]);
    }
}
