//! Aligned ASCII comparison tables.

/// A small column-aligned table for printing paper-style comparisons.
///
/// # Examples
///
/// ```
/// use qgov_metrics::ComparisonTable;
///
/// let mut t = ComparisonTable::new(vec!["Methodology", "Norm. energy"]);
/// t.add_row(vec!["Linux Ondemand".into(), "1.29".into()]);
/// t.add_row(vec!["Proposed".into(), "1.11".into()]);
/// let text = t.render();
/// assert!(text.contains("Proposed"));
/// assert!(text.starts_with("Methodology     Norm. energy\n"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComparisonTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ComparisonTable {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        ComparisonTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's cell count differs from the header count.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells for {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no data rows were added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                line.push_str(cell);
                line.push_str(&" ".repeat(widths[i] - cell.len()));
            }
            line.trim_end().to_owned()
        };
        out.push_str(&render_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ComparisonTable {
        let mut t = ComparisonTable::new(vec!["Name", "Value"]);
        t.add_row(vec!["short".into(), "1.0".into()]);
        t.add_row(vec!["a much longer name".into(), "2.25".into()]);
        t
    }

    #[test]
    fn columns_align() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        // "Value" column starts at the same offset in every row.
        let offset = lines[0].find("Value").unwrap();
        assert_eq!(lines[2].find("1.0").unwrap(), offset);
        assert_eq!(lines[3].find("2.25").unwrap(), offset);
    }

    #[test]
    fn row_width_is_validated() {
        let mut t = ComparisonTable::new(vec!["only one"]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.add_row(vec!["a".into(), "b".into()]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn emptiness() {
        let t = ComparisonTable::new(vec!["h"]);
        assert!(t.is_empty());
        assert_eq!(sample().len(), 2);
    }
}
