//! Reading a published release back, as its consumer would, to check it.

use kanon_core::{GeneralizedRecord, GeneralizedTable, SharedSchema};
use kanon_data::csv::parse_csv;
use std::collections::HashMap;
use std::sync::Arc;

/// Parses a generalized CSV (header row first) over `schema`. Cells are
/// leaf labels, `*` for the root, or `{a,b,…}` for an inner node.
pub fn parse_generalized(schema: &SharedSchema, text: &str) -> Result<GeneralizedTable, String> {
    let mut rows = parse_csv(text).into_iter();
    rows.next().ok_or("empty release")?;
    let mut records = Vec::new();
    for fields in rows {
        if fields.len() == 1 && fields[0].is_empty() {
            continue;
        }
        if fields.len() != schema.num_attrs() {
            return Err(format!(
                "row has {} fields, schema has {}",
                fields.len(),
                schema.num_attrs()
            ));
        }
        let mut nodes = Vec::with_capacity(fields.len());
        for (j, cell) in fields.iter().enumerate() {
            let attr = schema.attr(j);
            let h = attr.hierarchy();
            let node = if let Ok(v) = attr.domain().value_of(cell) {
                h.leaf(v)
            } else if cell == "*" {
                h.root()
            } else {
                let inner = cell
                    .strip_prefix('{')
                    .and_then(|c| c.strip_suffix('}'))
                    .ok_or_else(|| format!("cell {cell:?} of {} is not a node", attr.name()))?;
                let values = inner
                    .split(',')
                    .map(|l| attr.domain().value_of(l))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                h.node_of_exact_set(&values)
                    .ok_or_else(|| format!("{cell} is not a node of {}", attr.name()))?
            };
            nodes.push(node);
        }
        records.push(GeneralizedRecord::new(nodes));
    }
    GeneralizedTable::new(Arc::clone(schema), records).map_err(|e| e.to_string())
}

/// The smallest number of times any distinct data row occurs in a CSV
/// body (header row first), and the number of data rows.
pub fn min_row_multiplicity(csv: &str) -> (usize, usize) {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    let mut rows = 0;
    for line in csv.lines().skip(1).filter(|l| !l.is_empty()) {
        *counts.entry(line).or_default() += 1;
        rows += 1;
    }
    (counts.values().copied().min().unwrap_or(0), rows)
}

/// True when `a` and `b` agree to within a relative `1e-9`: the loss
/// recomputed from a parsed release sums the same per-row costs, but
/// not necessarily in the same order.
pub fn same_loss(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplicity_counts_distinct_data_rows() {
        assert_eq!(min_row_multiplicity("h\na\nb\na\nb\nb\n"), (2, 5));
        assert_eq!(min_row_multiplicity("h\n"), (0, 0));
    }
}
