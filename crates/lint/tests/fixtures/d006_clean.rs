//! Token fixture: state is owned and mutated through `&mut self`; the
//! test module may still use a `Cell`.
pub struct Cache {
    entries: Vec<u64>,
    hits: u64,
}

impl Cache {
    pub fn record(&mut self, x: u64) {
        self.entries.push(x);
        self.hits += 1;
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    #[test]
    fn counts() {
        let seen = Cell::new(0u8);
        seen.set(1);
    }
}
