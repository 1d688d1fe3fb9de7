use std::fmt;

/// A minimal aligned ASCII table, used by the artifact registry to print
/// the paper's tables and figure series.
///
/// Columns are sized to their widest cell; the first column is
/// left-aligned, all others right-aligned (matching the paper's layout of
/// row labels followed by numbers).
///
/// # Examples
///
/// ```
/// use interleave_stats::Table;
///
/// let mut t = Table::new("Table 7: throughput increase");
/// t.headers(["Scheme", "IC", "DC"]);
/// t.row(["Interleaved", "1.18", "1.41"]);
/// let s = t.to_string();
/// assert!(s.contains("Interleaved"));
/// assert!(s.contains("Table 7"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title line.
    pub fn new(title: impl Into<String>) -> Table {
        Table { title: title.into(), headers: Vec::new(), rows: Vec::new() }
    }

    /// Sets the header row.
    pub fn headers<I, S>(&mut self, headers: I) -> &mut Table
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.headers = headers.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a data row.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Table
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The data rows, in insertion order.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    fn widths(&self) -> Vec<usize> {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for row in std::iter::once(&self.headers).chain(self.rows.iter()) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        writeln!(f, "{}", self.title)?;
        let render = |f: &mut fmt::Formatter<'_>, row: &[String]| -> fmt::Result {
            for (i, width) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i == 0 {
                    write!(f, "{cell:<width$}")?;
                } else {
                    write!(f, "  {cell:>width$}")?;
                }
            }
            writeln!(f)
        };
        if !self.headers.is_empty() {
            render(f, &self.headers)?;
            let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
            writeln!(f, "{}", "-".repeat(total))?;
        }
        for row in &self.rows {
            render(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_headers_rows() {
        let mut t = Table::new("T");
        t.headers(["a", "bbbb"]);
        t.row(["x", "1"]);
        t.row(["yy", "22"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "T");
        assert!(lines[1].contains("bbbb"));
        assert!(lines[2].starts_with('-'));
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn columns_align() {
        let mut t = Table::new("T");
        t.headers(["name", "v"]);
        t.row(["a", "100"]);
        t.row(["bb", "9"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        // Numeric column right-aligned: "9" ends at same offset as "100".
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn empty_table() {
        let t = Table::new("empty");
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.to_string(), "empty\n");
    }

    #[test]
    fn rows_are_exposed_in_order() {
        let mut t = Table::new("T");
        t.row(["a", "1"]);
        t.row(["b"]);
        assert_eq!(t.rows(), [vec!["a", "1"], vec!["b"]]);
    }

    #[test]
    fn ragged_rows_render() {
        let mut t = Table::new("T");
        t.headers(["a", "b", "c"]);
        t.row(["only-one"]);
        let s = t.to_string();
        assert!(s.contains("only-one"));
    }
}
